package traceio

import "repro/internal/faultinject"

// SetFaults installs (or, with nil, removes) the package's fault injector.
// It is not synchronized with in-flight writes.
func SetFaults(in *faultinject.Injector) { faults = in }
