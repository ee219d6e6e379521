package syspersist

// Crash stops every listed system the way a killed process would, for tests:
// it waits for in-flight async snapshot writers and closes each op log, but
// writes no final snapshot. A test that reopens the directory after Crash is
// then its only owner.
func (r *Registry) Crash() {
	for _, ds := range r.List() {
		_ = ds.close()
	}
}

// Close closes a system recovered outside a registry, for tests.
func (d *DurableSystem) Close() error { return d.close() }
