package online

// EventType classifies one logged admission-control decision.
type EventType string

const (
	// EventCreate is the system's birth record (version 1).
	EventCreate EventType = "create"
	// EventAdmit records a task committed by AddRT or AddSecurity.
	EventAdmit EventType = "admit"
	// EventReject records an arrival no core admitted.
	EventReject EventType = "reject"
	// EventRemove records a task retired by Remove.
	EventRemove EventType = "remove"
	// EventReallocate records a successful full re-run of the scheme.
	EventReallocate EventType = "reallocate"
	// EventReallocateReject records a Reallocate whose cold run failed; the
	// committed state was kept.
	EventReallocateReject EventType = "reallocate-reject"
)

// defaultMaxEvents bounds the per-system event retention; older events are
// dropped from the log (versions stay monotone — consumers detect the gap).
const defaultMaxEvents = 1024

// Event is one entry of a system's decision log. Versions are assigned from
// a per-system monotone counter; every decision — including rejections —
// increments it, so the version doubles as a total mutation-attempt count.
type Event struct {
	Version   uint64    `json:"version"`
	Type      EventType `json:"type"`
	Task      string    `json:"task,omitempty"`
	Kind      TaskKind  `json:"kind,omitempty"`
	Core      int       `json:"core"` // -1 when no core applies
	PeriodMS  float64   `json:"period_ms,omitempty"`
	Tightness float64   `json:"tightness,omitempty"`
	Reason    string    `json:"reason,omitempty"`
}

// logEvent assigns the next version, appends to the bounded log, wakes
// watchers and feeds the registry sink. Callers hold s.mu (or own the system
// exclusively during construction). It returns the assigned version.
func (s *System) logEvent(e Event) uint64 {
	s.version++
	e.Version = s.version
	s.events = append(s.events, e)
	if len(s.events) > defaultMaxEvents {
		// Trim the oldest half in one move so appends stay amortized O(1).
		keep := defaultMaxEvents / 2
		s.events = append(s.events[:0], s.events[len(s.events)-keep:]...)
	}
	close(s.changed)
	s.changed = make(chan struct{})
	if s.onEvent != nil {
		s.onEvent(e)
	}
	return e.Version
}

// Wake wakes event watchers without logging anything. The registry calls it
// on deletion so follow-mode streams re-check liveness instead of blocking
// for an event that will never come.
func (s *System) Wake() {
	s.mu.Lock()
	close(s.changed)
	s.changed = make(chan struct{})
	s.mu.Unlock()
}

// Version returns the system's current (latest assigned) version.
func (s *System) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// EventsSince returns a copy of the retained events with Version > since, in
// version order, plus a channel closed on the next logged event — the
// snapshot-then-wait seam of the SSE stream.
func (s *System) EventsSince(since uint64) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, e := range s.events {
		if e.Version > since {
			out = append(out, e)
		}
	}
	return out, s.changed
}
