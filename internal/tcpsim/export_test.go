package tcpsim

// Read-outs of sender and receiver state for the external tests.

// Pipe is the sender's in-flight estimate in segments.
func (s *Sender) Pipe() int { return s.pipe }

// Ssthresh is a Reno sender's slow-start threshold in segments.
func (s *Sender) Ssthresh() float64 { return s.cc.(*renoCC).ssthresh }

// BytesDelivered is the receiver's in-order payload bytes delivered so far.
func (r *Receiver) BytesDelivered() int64 { return r.cumAck * int64(r.cfg.MSS) }
