package traceio

// SiteWrite is the fault site consulted before a dataset write lands.
const SiteWrite = siteWrite

// SetFaults installs (or, with nil, removes) the package's fault hook: a
// non-nil error it returns for a site fails that operation. It is not
// synchronized with in-flight writes.
func SetFaults(fn func(site string) error) { faults = fn }
