package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// createSystemBody wraps the shared sample taskset into a create request.
func createSystemBody(id string) string {
	return fmt.Sprintf(`{"id": %q, "scheme": "hydra", "taskset": %s}`, id, sampleTaskset)
}

// TestServerCloseRemovesEphemeralDirs pins that a server configured without
// JobsDir and SystemsDir leaves neither temporary directory behind.
func TestServerCloseRemovesEphemeralDirs(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, s, "/v1/systems", createSystemBody("uav")); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	dirs := []string{s.JobsDir(), s.SystemsDir()}
	s.Close()
	for _, dir := range dirs {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s survives Close (stat err %v)", dir, err)
		}
	}
}

func TestSystemLifecycleOverHTTP(t *testing.T) {
	s := newServer(t)
	w := post(t, s, "/v1/systems", createSystemBody("uav"))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var sys SystemJSON
	if err := json.Unmarshal(w.Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if sys.ID != "uav" || sys.Version != 1 || len(sys.RTTasks) != 2 || len(sys.SecurityTasks) != 2 {
		t.Fatalf("unexpected system doc: %+v", sys)
	}
	// The created allocation matches the stateless endpoint's for the same
	// taskset and scheme.
	var rj struct {
		Tasks []struct {
			Name     string  `json:"name"`
			Core     int     `json:"core"`
			PeriodMS float64 `json:"period_ms"`
		} `json:"tasks"`
	}
	alloc := post(t, s, "/v1/allocate", allocateBody(sampleTaskset, ""))
	if err := json.Unmarshal(alloc.Body.Bytes(), &rj); err != nil {
		t.Fatal(err)
	}
	for _, want := range rj.Tasks {
		found := false
		for _, got := range sys.SecurityTasks {
			if got.Name == want.Name {
				found = true
				if got.Core != want.Core || got.PeriodMS != want.PeriodMS {
					t.Fatalf("system placement of %q (core %d, period %g) differs from /v1/allocate (core %d, period %g)",
						want.Name, got.Core, got.PeriodMS, want.Core, want.PeriodMS)
				}
			}
		}
		if !found {
			t.Fatalf("task %q missing from system doc", want.Name)
		}
	}

	// Duplicate id is a conflict with existing state, not a bad request.
	if w := post(t, s, "/v1/systems", createSystemBody("uav")); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", w.Code)
	}
	var list SystemListResponse
	if err := json.Unmarshal(get(t, s, "/v1/systems").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Systems) != 1 || list.Systems[0].ID != "uav" || len(list.Schemes) == 0 {
		t.Fatalf("list: %+v", list)
	}
	if w := get(t, s, "/v1/systems/uav"); w.Code != http.StatusOK {
		t.Fatalf("get: %d", w.Code)
	}
	if w := get(t, s, "/v1/systems/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("get unknown: %d", w.Code)
	}

	// Admit a security task, remove it, reallocate.
	addBody := `{"security_task": {"name": "scan", "wcet_ms": 10, "desired_period_ms": 2000, "max_period_ms": 20000}}`
	w = post(t, s, "/v1/systems/uav/tasks", addBody)
	if w.Code != http.StatusOK {
		t.Fatalf("add: %d %s", w.Code, w.Body)
	}
	var tr SystemTaskResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Admitted || tr.Task != "scan" || tr.Kind != "security" || tr.Version != 2 || tr.PeriodMS <= 0 {
		t.Fatalf("add response: %+v", tr)
	}
	if w := post(t, s, "/v1/systems/uav/tasks", addBody); w.Code != http.StatusConflict {
		t.Fatalf("duplicate task add: %d %s", w.Code, w.Body)
	}
	if w := del(t, s, "/v1/systems/uav/tasks/scan"); w.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", w.Code, w.Body)
	}
	if w := del(t, s, "/v1/systems/uav/tasks/scan"); w.Code != http.StatusNotFound {
		t.Fatalf("remove again: %d", w.Code)
	}
	w = post(t, s, "/v1/systems/uav/reallocate", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reallocate: %d %s", w.Code, w.Body)
	}

	// Events replay: every decision so far, versions contiguous from 1.
	ev := get(t, s, "/v1/systems/uav/events")
	if ev.Code != http.StatusOK {
		t.Fatalf("events: %d", ev.Code)
	}
	if ct := ev.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	// Expected log: create, admit, remove, reallocate (the duplicate-name
	// add fails fast, before any admission decision is logged).
	var versions []uint64
	for _, chunk := range strings.Split(strings.TrimSpace(ev.Body.String()), "\n\n") {
		for _, l := range strings.Split(chunk, "\n") {
			if rest, ok := strings.CutPrefix(l, "data: "); ok {
				var e struct {
					Version uint64 `json:"version"`
					Type    string `json:"type"`
				}
				if err := json.Unmarshal([]byte(rest), &e); err != nil {
					t.Fatalf("bad event %q: %v", rest, err)
				}
				versions = append(versions, e.Version)
			}
		}
	}
	if len(versions) != 4 {
		t.Fatalf("got %d events, want 4 (create, admit, remove, reallocate):\n%s", len(versions), ev.Body.String())
	}
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("event versions %v not contiguous from 1", versions)
		}
	}
	// since-filtering.
	ev = get(t, s, "/v1/systems/uav/events?since=3")
	if got := strings.Count(ev.Body.String(), "event: decision"); got != 1 {
		t.Fatalf("since=3 replayed %d events, want 1", got)
	}

	// Delete; everything 404s afterwards.
	if w := del(t, s, "/v1/systems/uav"); w.Code != http.StatusOK {
		t.Fatalf("delete: %d", w.Code)
	}
	for _, probe := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return get(t, s, "/v1/systems/uav") },
		func() *httptest.ResponseRecorder { return del(t, s, "/v1/systems/uav") },
		func() *httptest.ResponseRecorder { return post(t, s, "/v1/systems/uav/reallocate", "") },
		func() *httptest.ResponseRecorder { return get(t, s, "/v1/systems/uav/events") },
	} {
		if w := probe(); w.Code != http.StatusNotFound {
			t.Fatalf("after delete: %d, want 404", w.Code)
		}
	}

	// Stats carry the online counters.
	var st StatsResponse
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Systems.Created != 1 || st.Systems.Deleted != 1 || st.Systems.Active != 0 ||
		st.Systems.Admitted != 1 || st.Systems.Removed != 1 || st.Systems.Reallocations != 1 {
		t.Fatalf("system counters: %+v", st.Systems)
	}
}

func TestSystemRejectionPayload(t *testing.T) {
	s := newServer(t)
	body := `{"id": "tight", "taskset": {
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 80, "period_ms": 100},
	    {"name": "b", "wcet_ms": 80, "period_ms": 100}
	  ],
	  "security_tasks": []
	}}`
	if w := post(t, s, "/v1/systems", body); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	w := post(t, s, "/v1/systems/tight/tasks",
		`{"security_task": {"name": "fat", "wcet_ms": 90, "desired_period_ms": 100, "max_period_ms": 120}}`)
	if w.Code != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", w.Code, w.Body)
	}
	var tr SystemTaskResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Admitted || len(tr.Cores) != 2 || tr.Reason == "" || tr.Version == 0 {
		t.Fatalf("rejection payload: %+v", tr)
	}
	// Malformed add requests are 400s.
	for _, bad := range []string{
		`{}`,
		`{"rt_task": {"name": "x", "wcet_ms": 1, "period_ms": 10}, "security_task": {"name": "y", "wcet_ms": 1, "desired_period_ms": 10, "max_period_ms": 20}}`,
		`{"security_task": {"name": "neg", "wcet_ms": -1, "desired_period_ms": 10, "max_period_ms": 20}}`,
	} {
		if w := post(t, s, "/v1/systems/tight/tasks", bad); w.Code != http.StatusBadRequest {
			t.Fatalf("body %s: %d, want 400", bad, w.Code)
		}
	}
}

// TestSystemConcurrentAdmitsSerializeOverHTTP is the endpoint-level hammer:
// concurrent admits against one system serialize on the per-system lock into
// a contiguous event log with exactly one admit per unique task, and the
// final committed state reallocates to the same answer a cold run gives.
func TestSystemConcurrentAdmitsSerializeOverHTTP(t *testing.T) {
	s := newServer(t)
	if w := post(t, s, "/v1/systems", createSystemBody("hammer")); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	const goroutines = 32
	codes := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines race on the same name, half add unique ones.
			name := "dup"
			if g%2 == 0 {
				name = fmt.Sprintf("uniq%02d", g)
			}
			body := fmt.Sprintf(`{"security_task": {"name": %q, "wcet_ms": 0.2, "desired_period_ms": 3000, "max_period_ms": 30000}}`, name)
			codes[g] = post(t, s, "/v1/systems/hammer/tasks", body).Code
		}(g)
	}
	wg.Wait()
	okDup, conflictDup := 0, 0
	for g := 0; g < goroutines; g++ {
		switch {
		case g%2 == 0:
			if codes[g] != http.StatusOK {
				t.Fatalf("unique add %d: status %d", g, codes[g])
			}
		case codes[g] == http.StatusOK:
			okDup++
		case codes[g] == http.StatusConflict:
			conflictDup++
		default:
			t.Fatalf("dup add %d: status %d", g, codes[g])
		}
	}
	if okDup != 1 || conflictDup != goroutines/2-1 {
		t.Fatalf("dup adds: %d ok, %d conflict; want exactly 1 ok", okDup, conflictDup)
	}
	var sys SystemJSON
	if err := json.Unmarshal(get(t, s, "/v1/systems/hammer").Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.SecurityTasks) != 2+goroutines/2+1 {
		t.Fatalf("committed %d security tasks, want %d", len(sys.SecurityTasks), 2+goroutines/2+1)
	}
	// Version = create + one admit per committed dynamic task (rejected
	// duplicates fail before an event is logged).
	if want := uint64(1 + goroutines/2 + 1); sys.Version != want {
		t.Fatalf("version %d, want %d", sys.Version, want)
	}
	// Reallocating twice is deterministic: identical bytes.
	first := post(t, s, "/v1/systems/hammer/reallocate", "")
	if first.Code != http.StatusOK {
		t.Fatalf("reallocate: %d %s", first.Code, first.Body)
	}
	second := post(t, s, "/v1/systems/hammer/reallocate", "")
	var a, b SystemJSON
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	a.Version, b.Version = 0, 0
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("repeated reallocate differs:\n%s\nvs\n%s", ab, bb)
	}
}

// TestSystemCreateHonorsPinnedPartition: a taskset-supplied rt_partition
// seeds the committed placements (it is not silently re-partitioned away).
func TestSystemCreateHonorsPinnedPartition(t *testing.T) {
	s := newServer(t)
	body := `{"id": "pinned", "taskset": {
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 1, "period_ms": 10},
	    {"name": "b", "wcet_ms": 1, "period_ms": 10}
	  ],
	  "security_tasks": [],
	  "rt_partition": [0, 1]
	}}`
	w := post(t, s, "/v1/systems", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var sys SystemJSON
	if err := json.Unmarshal(w.Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if sys.RTTasks[0].Core != 0 || sys.RTTasks[1].Core != 1 {
		t.Fatalf("pinned partition not honored: %+v", sys.RTTasks)
	}
	// An unschedulable pin is a 400, not a silent re-partition.
	overPinned := `{"taskset": {
	  "cores": 2,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 6, "period_ms": 10},
	    {"name": "b", "wcet_ms": 6, "period_ms": 10}
	  ],
	  "security_tasks": [],
	  "rt_partition": [0, 0]
	}}`
	if w := post(t, s, "/v1/systems", overPinned); w.Code != http.StatusBadRequest {
		t.Fatalf("unschedulable pin: %d, want 400", w.Code)
	}
}

func TestSystemCreateRejectsInfeasibleAndBadSchemes(t *testing.T) {
	s := newServer(t)
	overload := `{"taskset": {
	  "cores": 1,
	  "rt_tasks": [
	    {"name": "a", "wcet_ms": 90, "period_ms": 100},
	    {"name": "b", "wcet_ms": 90, "period_ms": 100}
	  ],
	  "security_tasks": []
	}}`
	if w := post(t, s, "/v1/systems", overload); w.Code != http.StatusBadRequest {
		t.Fatalf("infeasible create: %d", w.Code)
	}
	if w := post(t, s, "/v1/systems", fmt.Sprintf(`{"scheme": "opt", "taskset": %s}`, sampleTaskset)); w.Code != http.StatusBadRequest {
		t.Fatalf("non-incremental scheme: %d", w.Code)
	}
}
