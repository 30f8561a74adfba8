package tcpsim

// Read-outs of sender and receiver state for the external tests.

// Pipe is the sender's in-flight estimate in segments.
func (s *Sender) Pipe() int { return s.pipe }

// Ssthresh is a Reno sender's slow-start threshold in segments.
func (s *Sender) Ssthresh() float64 { return s.cc.(*renoCC).ssthresh }

// MinRTT is the smallest RTT sample (0 if none).
func (s *Stats) MinRTT() float64 {
	if s.RTTSamples == 0 {
		return 0
	}
	return s.rttMin
}

// BytesDelivered is the receiver's in-order payload bytes delivered so far.
func (r *Receiver) BytesDelivered() int64 { return r.cumAck * mss }

// WithNoSACK returns cfg with SACK off when noSACK is set: NewReno
// recovery, the reference the recovery tests compare SACK against.
func WithNoSACK(cfg Config, noSACK bool) Config {
	cfg.noSACK = noSACK
	return cfg
}
