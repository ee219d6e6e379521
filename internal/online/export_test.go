package online

// CachedText returns the number text a snapshot stored with the placement,
// or "" when none did, for tests.
func (p PlacedRT) CachedText() string { return p.text }

// CachedText returns the number text a snapshot stored with the placement,
// or "" when none did, for tests.
func (p PlacedSec) CachedText() string { return p.text }
