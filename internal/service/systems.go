package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/syspersist"
	"hydra/internal/tasksetio"
)

// SystemCreateRequest is the body of POST /v1/systems: the initial taskset
// plus the scheme and partition heuristic the system will live under. The id
// is optional (a random one is drawn when absent); supply one for idempotent
// infrastructure-as-code setups.
type SystemCreateRequest struct {
	ID        string             `json:"id,omitempty"`
	Scheme    string             `json:"scheme,omitempty"`
	Heuristic string             `json:"heuristic,omitempty"`
	Taskset   tasksetio.Document `json:"taskset"`
	// ReallocateAfter sets the system's auto-reallocate policy: after this
	// many consecutive rejections the system reallocates once and retries
	// the rejected admission. Zero (the default) disables the policy.
	ReallocateAfter int `json:"reallocate_after,omitempty"`
}

// SystemRTTaskJSON is one committed real-time task of a system.
type SystemRTTaskJSON struct {
	Name     string  `json:"name"`
	WCET     float64 `json:"wcet_ms"`
	Period   float64 `json:"period_ms"`
	Deadline float64 `json:"deadline_ms,omitempty"` // omitted when equal to the period
	Core     int     `json:"core"`
}

// SystemSecTaskJSON is one committed security task of a system with its
// adapted period.
type SystemSecTaskJSON struct {
	Name          string  `json:"name"`
	WCET          float64 `json:"wcet_ms"`
	DesiredPeriod float64 `json:"desired_period_ms"`
	MaxPeriod     float64 `json:"max_period_ms"`
	Weight        float64 `json:"weight,omitempty"`
	Core          int     `json:"core"`
	PeriodMS      float64 `json:"period_ms"`
	Tightness     float64 `json:"tightness"`
}

// SystemJSON is the wire form of one system's committed state. The server
// writes it with appendSystem; clients decode into it.
type SystemJSON struct {
	ID                  string              `json:"id"`
	Scheme              string              `json:"scheme"`
	Heuristic           string              `json:"heuristic"`
	Cores               int                 `json:"cores"`
	Version             uint64              `json:"version"`
	RTTasks             []SystemRTTaskJSON  `json:"rt_tasks"`
	SecurityTasks       []SystemSecTaskJSON `json:"security_tasks"`
	CumulativeTightness float64             `json:"cumulative_tightness"`
}

// SystemListResponse is the body of GET /v1/systems.
type SystemListResponse struct {
	Schemes []string     `json:"schemes"` // schemes systems can be created with
	Systems []SystemJSON `json:"systems"`
}

// SystemTaskRequest is the body of POST /v1/systems/{id}/tasks: exactly one
// of the two task shapes.
type SystemTaskRequest struct {
	RTTask       *tasksetio.RTTaskJSON       `json:"rt_task,omitempty"`
	SecurityTask *tasksetio.SecurityTaskJSON `json:"security_task,omitempty"`
}

// SystemTaskResponse reports an admission decision. Admitted decisions carry
// the placement; rejections (HTTP 409) carry the per-core verdicts.
type SystemTaskResponse struct {
	Admitted  bool                 `json:"admitted"`
	Task      string               `json:"task"`
	Kind      string               `json:"kind"`
	Version   uint64               `json:"version"`
	Core      int                  `json:"core"`
	PeriodMS  float64              `json:"period_ms,omitempty"`
	Tightness float64              `json:"tightness,omitempty"`
	Reason    string               `json:"reason,omitempty"`
	Cores     []online.CoreVerdict `json:"cores,omitempty"`
}

// SystemRemoveResponse reports a removal.
type SystemRemoveResponse struct {
	Removed bool   `json:"removed"`
	Task    string `json:"task"`
	Kind    string `json:"kind"`
	Core    int    `json:"core"`
	Version uint64 `json:"version"`
}

// SystemDeleteResponse reports a system deletion.
type SystemDeleteResponse struct {
	Deleted bool   `json:"deleted"`
	ID      string `json:"id"`
}

// appendSystem writes one system's committed state as a SystemJSON
// document: the bytes encoding/json gives the SystemJSON of snap, at the
// writer's current depth.
func appendSystem(w *tasksetio.JSONWriter, snap online.Snapshot) {
	w.BeginObject()
	w.Key("id").String(snap.ID)
	w.Key("scheme").String(snap.Scheme)
	w.Key("heuristic").String(snap.Heuristic.String())
	w.Key("cores").Int(snap.M)
	w.Key("version").Uint(snap.Version)
	w.Key("rt_tasks").BeginArray()
	for _, p := range snap.RT {
		w.Elem().PlacedRT(p.Task, p.Core)
	}
	w.EndArray()
	w.Key("security_tasks").BeginArray()
	for _, p := range snap.Sec {
		w.Elem().BeginObject()
		w.PlacedSecurity(p.Task, p.Core, p.Period)
		w.Key("tightness").Float(p.Tightness())
		w.EndObject()
	}
	w.EndArray()
	w.Key("cumulative_tightness").Float(snap.Cumulative)
	w.EndObject()
}

// writeSystem answers with one system's document.
func writeSystem(w http.ResponseWriter, r *http.Request, code int, snap online.Snapshot) {
	writeRendered(w, traceFrom(r.Context()), code, func(b []byte) ([]byte, bool) {
		jw := tasksetio.JSONWriter{Buf: b}
		appendSystem(&jw, snap)
		return jw.Buf, jw.OK()
	})
}

// systemStatus maps an online-package error onto an HTTP status: conflicts
// with existing state (duplicate names/ids, a full registry) are 409s,
// unknown names 404s, and everything else a malformed request.
func systemStatus(err error) int {
	var rej *online.Rejection
	switch {
	case errors.As(err, &rej),
		errors.Is(err, online.ErrDuplicateName),
		errors.Is(err, syspersist.ErrSystemExists),
		errors.Is(err, syspersist.ErrRegistryFull),
		errors.Is(err, syspersist.ErrClosed):
		return http.StatusConflict
	case errors.Is(err, online.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSystemCreate(w http.ResponseWriter, r *http.Request) {
	tr := traceFrom(r.Context())
	sp := tr.StartSpan("decode")
	var req SystemCreateRequest
	ok := decodeRequest(w, r, &req)
	sp.End()
	if !ok {
		return
	}
	h, err := partition.ParseHeuristic(req.Heuristic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := req.Taskset.ToProblem()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.ReallocateAfter < 0 {
		writeError(w, http.StatusBadRequest, "reallocate_after must be >= 0, got %d", req.ReallocateAfter)
		return
	}
	sp = tr.StartSpan("persist-apply")
	sys, err := s.systems.Create(req.ID, req.Scheme, h, p.M, p.RT, p.RTPartition, p.Sec, req.ReallocateAfter)
	sp.End()
	if err != nil {
		writeError(w, systemStatus(err), "%v", err)
		return
	}
	writeSystem(w, r, http.StatusCreated, sys.Snapshot())
}

func (s *Server) handleSystemList(w http.ResponseWriter, r *http.Request) {
	systems := s.systems.List()
	writeRendered(w, traceFrom(r.Context()), http.StatusOK, func(b []byte) ([]byte, bool) {
		jw := tasksetio.JSONWriter{Buf: b}
		jw.BeginObject()
		jw.Key("schemes").BeginArray()
		for _, name := range online.SupportedSchemes() {
			jw.Elem().String(name)
		}
		jw.EndArray()
		jw.Key("systems").BeginArray()
		for _, sys := range systems {
			appendSystem(jw.Elem(), sys.Snapshot())
		}
		jw.EndArray()
		jw.EndObject()
		return jw.Buf, jw.OK()
	})
}

// getSystem resolves {id} or writes a 404.
func (s *Server) getSystem(w http.ResponseWriter, r *http.Request) (*syspersist.DurableSystem, bool) {
	id := r.PathValue("id")
	sys, ok := s.systems.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such system %q", id)
		return nil, false
	}
	return sys, true
}

func (s *Server) handleSystemGet(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.getSystem(w, r)
	if !ok {
		return
	}
	writeSystem(w, r, http.StatusOK, sys.Snapshot())
}

func (s *Server) handleSystemDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.systems.Delete(id) {
		writeError(w, http.StatusNotFound, "no such system %q", id)
		return
	}
	writeJSON(w, http.StatusOK, SystemDeleteResponse{Deleted: true, ID: id})
}

func (s *Server) handleSystemAddTask(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.getSystem(w, r)
	if !ok {
		return
	}
	tr := traceFrom(r.Context())
	sp := tr.StartSpan("decode")
	var req SystemTaskRequest
	ok = decodeRequest(w, r, &req)
	sp.End()
	if !ok {
		return
	}
	if (req.RTTask == nil) == (req.SecurityTask == nil) {
		writeError(w, http.StatusBadRequest, "supply exactly one of rt_task or security_task")
		return
	}
	var (
		name      string
		kind      online.TaskKind
		placement online.Placement
		err       error
	)
	sp = tr.StartSpan("persist-apply")
	if req.RTTask != nil {
		t := *req.RTTask
		deadline := t.Deadline
		if deadline == 0 {
			deadline = t.Period
		}
		name, kind = t.Name, online.KindRT
		placement, err = sys.AddRT(rts.RTTask{Name: t.Name, C: t.WCET, T: t.Period, D: deadline})
	} else {
		t := *req.SecurityTask
		name, kind = t.Name, online.KindSecurity
		placement, err = sys.AddSecurity(rts.SecurityTask{
			Name: t.Name, C: t.WCET, TDes: t.DesiredPeriod, TMax: t.MaxPeriod, Weight: t.Weight,
		})
	}
	sp.End()
	if err != nil {
		var rej *online.Rejection
		if errors.As(err, &rej) {
			writeJSON(w, http.StatusConflict, SystemTaskResponse{
				Admitted: false, Task: name, Kind: string(kind), Version: rej.Version,
				Core: -1, Reason: rej.Error(), Cores: rej.Cores,
			})
			return
		}
		writeError(w, systemStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SystemTaskResponse{
		Admitted: true, Task: name, Kind: string(kind), Version: placement.Version,
		Core: placement.Core, PeriodMS: placement.Period, Tightness: placement.Tightness,
	})
}

func (s *Server) handleSystemRemoveTask(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.getSystem(w, r)
	if !ok {
		return
	}
	name := r.PathValue("task")
	sp := traceFrom(r.Context()).StartSpan("persist-apply")
	removed, err := sys.Remove(name)
	sp.End()
	if err != nil {
		writeError(w, systemStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SystemRemoveResponse{
		Removed: true, Task: name, Kind: string(removed.Kind), Core: removed.Core, Version: removed.Version,
	})
}

func (s *Server) handleSystemReallocate(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.getSystem(w, r)
	if !ok {
		return
	}
	sp := traceFrom(r.Context()).StartSpan("persist-apply")
	snap, err := sys.Reallocate()
	sp.End()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeSystem(w, r, http.StatusOK, snap)
}

// handleSystemEvents streams the system's decision log as server-sent
// events, mirroring the experiment jobs stream: one "decision" event per log
// entry, in version order. Retained events with version > ?since (default 0:
// everything retained) are replayed first; with ?follow=1 the stream then
// stays open for live decisions until the client disconnects or the system
// is deleted, otherwise it closes once caught up (the curl- and golden-
// friendly default).
func (s *Server) handleSystemEvents(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.getSystem(w, r)
	if !ok {
		return
	}
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q: %v", q, err)
			return
		}
		since = v
	}
	follow := r.URL.Query().Get("follow") == "1"
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		events, changed := sys.EventsSince(since)
		for _, e := range events {
			body, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: decision\ndata: %s\n\n", body); err != nil {
				return
			}
			since = e.Version
		}
		flusher.Flush()
		if !follow {
			return
		}
		select {
		case <-changed:
			// Deleted systems log no further events; detect deletion so the
			// stream does not linger until the client gives up. Compare by
			// identity, not id: a delete-and-recreate under the same id must
			// end this stream (its watch channel belongs to the dead system).
			if cur, live := s.systems.Get(sys.ID()); !live || cur != sys {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
