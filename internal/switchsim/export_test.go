package switchsim

// Sent returns the number of attack packets emitted.
func (f *Flooder) Sent() uint64 { return f.sent }
