package tcpsim

// Read-outs of sender and receiver state for the external tests.

// Pipe is the sender's in-flight estimate in segments.
func (s *Sender) Pipe() int { return s.pipe }

// Ssthresh is a Reno sender's slow-start threshold in segments.
func (s *Sender) Ssthresh() float64 { return s.cc.(*renoCC).ssthresh }

// CCProbe sits in front of a sender's congestion control and records
// what the sender hands it: the ACKs that arrive and the clean RTT samples.
type CCProbe struct {
	CongestionControl
	Acks   int64   // OnAck calls: one per arriving ACK that the sender acts on
	MinRTT float64 // smallest RTT sample (0 if none)
}

func (p *CCProbe) OnAck(info AckInfo) {
	p.Acks++
	p.CongestionControl.OnAck(info)
}

func (p *CCProbe) OnRTT(rtt, now float64) {
	if p.MinRTT == 0 || rtt < p.MinRTT {
		p.MinRTT = rtt
	}
	p.CongestionControl.OnRTT(rtt, now)
}

// Probe installs a CCProbe in front of the sender's congestion control.
func (s *Sender) Probe() *CCProbe {
	p := &CCProbe{CongestionControl: s.cc}
	s.cc = p
	return p
}

// BytesDelivered is the receiver's in-order payload bytes delivered so far.
func (r *Receiver) BytesDelivered() int64 { return r.cumAck * mss }

// WithNoSACK returns cfg with SACK off when noSACK is set: NewReno
// recovery, the reference the recovery tests compare SACK against.
func WithNoSACK(cfg Config, noSACK bool) Config {
	cfg.noSACK = noSACK
	return cfg
}
