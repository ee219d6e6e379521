package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/service"
	"hydra/internal/stats"
	"hydra/internal/taskgen"
)

// systemSpec is one hosted system's creation input.
type systemSpec struct {
	id string
	problemSpec
}

// systemsPool draws n systems of m cores at total utilization util whose
// initial taskset a cold allocation accepts; a draw it rejects is skipped.
func systemsPool(seed int64, n, m int, util float64) []systemSpec {
	var out []systemSpec
	for j := 0; len(out) < n; j++ {
		ps := problemSpec{params: taskgen.DefaultParams(m, util), seed: seed, stream: streamSystemDraw + int64(j)}
		w, err := taskgen.Generate(ps.params, stats.Split(ps.seed, ps.stream))
		if err != nil {
			continue
		}
		ps.w = w
		if sp, ok := admissible(len(out), ps); ok {
			out = append(out, sp)
		}
	}
	return out
}

// admissible names the problem as system i when the online layer can host
// it: its cold allocation must succeed.
func admissible(i int, ps problemSpec) (systemSpec, bool) {
	sp := systemSpec{id: fmt.Sprintf("sys-%02d", i), problemSpec: ps}
	_, err := online.NewSystem(sp.id, service.DefaultScheme, partition.BestFit, ps.params.M, ps.w.RT, nil, ps.w.Sec)
	return sp, err == nil
}

// opKind is one kind of systems-durable operation.
type opKind int

const (
	opAddSecurity opKind = iota
	opAddRT
	opRemove
	opGet
	numOpKinds
)

// sysOp is one operation on one system.
type sysOp struct {
	kind opKind
	name string // the added or removed task
	rt   rts.RTTask
	sec  rts.SecurityTask
}

// opGen draws one system's operation sequence: 45% security-task admits,
// 15% real-time admits, 30% removals of a task this generator saw admitted,
// 10% reads. Which task a removal picks depends on the admission outcomes
// fed back through admitted, so the sequence is the same wherever the
// outcomes are.
type opGen struct {
	rng   *rand.Rand
	alive []string
	n     int
}

func newOpGen(seed int64, j int) *opGen {
	return &opGen{rng: stats.Split(seed, streamSystemOps+int64(j))}
}

func (g *opGen) next() sysOp {
	g.n++
	x := g.rng.Float64()
	switch {
	case x < 0.30 && len(g.alive) > 0:
		i := g.rng.Intn(len(g.alive))
		name := g.alive[i]
		g.alive[i] = g.alive[len(g.alive)-1]
		g.alive = g.alive[:len(g.alive)-1]
		return sysOp{kind: opRemove, name: name}
	case x < 0.40:
		return sysOp{kind: opGet}
	case x < 0.55:
		period := 10 * math.Pow(100, g.rng.Float64()) // log-uniform in [10, 1000] ms
		u := 0.005 + 0.045*g.rng.Float64()
		name := "r" + strconv.Itoa(g.n)
		return sysOp{kind: opAddRT, name: name, rt: rts.NewRTTask(name, u*period, period)}
	default:
		tdes := 1000 + 2000*g.rng.Float64()
		u := 0.002 + 0.018*g.rng.Float64()
		name := "s" + strconv.Itoa(g.n)
		return sysOp{kind: opAddSecurity, name: name, sec: rts.SecurityTask{Name: name, C: u * tdes, TDes: tdes, TMax: 10 * tdes}}
	}
}

func (g *opGen) admitted(op sysOp) { g.alive = append(g.alive, op.name) }

// request renders op on system id as an HTTP method, path and body.
func (op sysOp) request(id string) (string, string, []byte) {
	path := "/v1/systems/" + id
	var body any
	switch op.kind {
	case opAddRT:
		body = map[string]any{"rt_task": map[string]any{"name": op.name, "wcet_ms": op.rt.C, "period_ms": op.rt.T}}
	case opAddSecurity:
		body = map[string]any{"security_task": map[string]any{"name": op.name, "wcet_ms": op.sec.C,
			"desired_period_ms": op.sec.TDes, "max_period_ms": op.sec.TMax}}
	case opRemove:
		return http.MethodDelete, path + "/tasks/" + op.name, nil
	default:
		return http.MethodGet, path, nil
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of strings and floats always marshal
	}
	return http.MethodPost, path + "/tasks", b
}

// expectedStatus reports whether status is a correct answer to op, and
// whether it says the task was admitted.
func (op sysOp) expectedStatus(status int) (ok, admitted bool) {
	switch op.kind {
	case opAddRT, opAddSecurity:
		return status == http.StatusOK || status == http.StatusConflict, status == http.StatusOK
	default:
		return status == http.StatusOK, false
	}
}

// sysLog is what one system's owner client saw.
type sysLog struct {
	statuses []int
	hash     []byte // (index, status, body hash) of the first digestOps ops
}

// runSystems is the systems-durable workload: durable online systems under
// admits, removals and reads, then SIGKILL restarts whose recovered state
// must equal the state before the kill.
func runSystems(ctx context.Context, e *env) (*outcome, error) {
	o := &outcome{latWhat: "ops", extra: map[string]float64{}}
	specs := systemsPool(e.seed, e.sc.systems, 4, 1.6)
	creates := make([][]byte, len(specs))
	for i, sp := range specs {
		b, err := json.Marshal(service.SystemCreateRequest{ID: sp.id, Scheme: service.DefaultScheme, Taskset: document(4, sp.w)})
		if err != nil {
			return nil, err
		}
		creates[i] = b
	}
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	var sysDir string
	err := e.setUp(o, func(i int) (time.Duration, error) {
		if s != nil {
			s.stop()
		}
		sysDir = filepath.Join(e.work, fmt.Sprintf("sys-%d", i))
		start := time.Now()
		var err error
		if s, err = e.startServer(ctx, "-systems-dir", sysDir); err != nil {
			return 0, err
		}
		admin := newAPI(s.base, 1)
		defer admin.close()
		var buf bytes.Buffer
		for j, body := range creates {
			r, err := admin.do(ctx, http.MethodPost, "/v1/systems", body, "", &buf)
			if err == nil && r.status != http.StatusCreated {
				err = fmt.Errorf("create %s: status %d: %s", specs[j].id, r.status, buf.String())
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	logs := make([]sysLog, len(specs))
	var lat [clients][]float64
	var bad [clients]int
	var firstBad [clients]string
	tr := newTraceIDs(e.trace)
	load := newAPI(s.base, clients)
	defer load.close()
	before, after, err := measureServer(ctx, e, s, o, func(c int) func() error {
		// Client c owns systems c, c+clients, ...: each system has one
		// client, so its op order, and so its final state, is fixed.
		var own []int
		gens := map[int]*opGen{}
		for j := c; j < len(specs); j += clients {
			own = append(own, j)
			gens[j] = newOpGen(e.seed, j)
		}
		var buf bytes.Buffer
		k := 0
		return func() error {
			j := own[k%len(own)]
			k++
			op := gens[j].next()
			method, path, body := op.request(specs[j].id)
			id := tr.id(c)
			t0 := time.Now()
			r, err := load.do(ctx, method, path, body, id, &buf)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			lat[c] = append(lat[c], float64(d)/float64(time.Millisecond))
			tr.record(c, d)
			lg := &logs[j]
			i := len(lg.statuses)
			lg.statuses = append(lg.statuses, r.status)
			ok, admitted := op.expectedStatus(r.status)
			if !ok {
				if bad[c] == 0 {
					firstBad[c] = fmt.Sprintf("%s op %d (%s %s): status %d: %s", specs[j].id, i, method, path, r.status, buf.String())
				}
				bad[c]++
			}
			if admitted {
				gens[j].admitted(op)
			}
			if i < e.sc.digestOps {
				var hdr [16]byte
				binary.BigEndian.PutUint64(hdr[:8], uint64(i))
				binary.BigEndian.PutUint64(hdr[8:], uint64(r.status))
				sum := sha256.Sum256(buf.Bytes())
				lg.hash = append(append(lg.hash, hdr[:]...), sum[:]...)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	o.latMS = latencies(lat)
	o.ops = len(o.latMS)
	o.failed = bad[0] + bad[1]
	if o.failed > 0 {
		o.checks = append(o.checks, fail("status", "%d of %d ops answered unexpectedly; first: %s%s", o.failed, o.ops, firstBad[0], firstBad[1]))
	} else {
		o.checks = append(o.checks, pass("status", "%d ops: admits 200/409, removals and reads 200", o.ops))
	}
	complete := true
	all := sha256.New()
	for j := range logs {
		complete = complete && len(logs[j].statuses) >= e.sc.digestOps
		all.Write(logs[j].hash)
	}
	if complete {
		o.digest = hex.EncodeToString(all.Sum(nil))
	}

	// The committed state before the kill, read back over HTTP.
	admin := newAPI(s.base, 1)
	preKill := make([][]byte, len(specs))
	for j, sp := range specs {
		if preKill[j], err = admin.get(ctx, "/v1/systems/"+sp.id); err != nil {
			admin.close()
			return nil, err
		}
	}
	admin.close()
	if err := finishServer(ctx, e, s, o, before, after, tr); err != nil {
		return nil, err
	}

	// SIGKILL restarts: each recovers the log the previous process left.
	var recoverS []float64
	for i := 0; i < e.sc.restarts; i++ {
		if s, err = e.startServer(ctx, "-systems-dir", sysDir); err != nil {
			return nil, err
		}
		recoverS = append(recoverS, s.ready.Seconds())
		admin := newAPI(s.base, 1)
		for j, sp := range specs {
			got, err := admin.get(ctx, "/v1/systems/"+sp.id)
			if err != nil {
				admin.close()
				return nil, err
			}
			if !bytes.Equal(got, preKill[j]) {
				o.checks = append(o.checks, fail("recovery", "restart %d: %s differs from its state before the kill", i+1, sp.id))
				break
			}
		}
		admin.close()
		s.stop()
	}
	if len(recoverS) > 0 {
		sort.Float64s(recoverS)
		o.extra["recover_s"] = recoverS[len(recoverS)/2]
		if failedChecks(o.checks, "recovery") == 0 {
			o.checks = append(o.checks, pass("recovery", "%d SIGKILL restarts: every recovered system byte-equal to its state before the kill", len(recoverS)))
		}
	}

	// Replay every system's op sequence on an in-memory online.System: the
	// decisions must match the server's answers and the final states its
	// reads; the final states must satisfy the paper's guarantee.
	counts := make([]int, len(specs))
	for j := range logs {
		counts[j] = len(logs[j].statuses)
	}
	rep, err := replayOnline(specs, e.seed, counts)
	if err != nil {
		o.checks = append(o.checks, fail("replay", "%v", err))
		return o, nil
	}
	o.checks = append(o.checks, compareReplay(specs, logs, preKill, rep)...)
	if e.trace {
		if err := replayLayers(ctx, e, o, nil, rep); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// failedChecks counts failed checks with the given name.
func failedChecks(cs []check, name string) int {
	n := 0
	for _, c := range cs {
		if c.name == name && !c.ok {
			n++
		}
	}
	return n
}

// replayed is one op applied in process, with its decision and latency.
type replayed struct {
	op       sysOp
	admitted bool
	took     time.Duration
}

// onlineReplay is the in-process run of every system's op sequence.
type onlineReplay struct {
	specs  []systemSpec
	seed   int64
	ops    [][]replayed
	finals []online.Snapshot
}

// replayOnline applies counts[j] ops of system j's sequence to an in-memory
// online.System built like the server builds it.
func replayOnline(specs []systemSpec, seed int64, counts []int) (*onlineReplay, error) {
	rep := &onlineReplay{specs: specs, seed: seed, ops: make([][]replayed, len(specs)), finals: make([]online.Snapshot, len(specs))}
	for j, sp := range specs {
		sys, err := online.NewSystem(sp.id, service.DefaultScheme, partition.BestFit, sp.params.M, sp.w.RT, nil, sp.w.Sec)
		if err != nil {
			return nil, err
		}
		g := newOpGen(seed, j)
		for i := 0; i < counts[j]; i++ {
			op := g.next()
			r := replayed{op: op}
			t0 := time.Now()
			switch op.kind {
			case opAddRT:
				_, err = sys.AddRT(op.rt)
			case opAddSecurity:
				_, err = sys.AddSecurity(op.sec)
			case opRemove:
				_, err = sys.Remove(op.name)
			case opGet:
				_ = sys.Snapshot()
				err = nil
			}
			r.took = time.Since(t0)
			var rej *online.Rejection
			switch {
			case err == nil:
				r.admitted = op.kind == opAddRT || op.kind == opAddSecurity
			case errors.As(err, &rej):
			default:
				return nil, fmt.Errorf("%s op %d: %w", sp.id, i, err)
			}
			if r.admitted {
				g.admitted(op)
			}
			rep.ops[j] = append(rep.ops[j], r)
		}
		rep.finals[j] = sys.Snapshot()
	}
	return rep, nil
}

// compareReplay checks the server's answers and final states against the
// in-process replay, and the final states against the paper's analysis.
func compareReplay(specs []systemSpec, logs []sysLog, preKill [][]byte, rep *onlineReplay) []check {
	var decisions, states, sound []string
	for j, sp := range specs {
		for i, r := range rep.ops[j] {
			_, admitted := r.op.expectedStatus(logs[j].statuses[i])
			if admitted != r.admitted {
				decisions = append(decisions, fmt.Sprintf("%s op %d: server admitted=%t, replay admitted=%t", sp.id, i, admitted, r.admitted))
				break
			}
		}
		var got service.SystemJSON
		if err := json.Unmarshal(preKill[j], &got); err != nil {
			states = append(states, fmt.Sprintf("%s: %v", sp.id, err))
			continue
		}
		if want := systemJSON(rep.finals[j]); !reflect.DeepEqual(got, want) {
			states = append(states, fmt.Sprintf("%s: server state (version %d) differs from the replay (version %d)", sp.id, got.Version, want.Version))
		}
		if err := verifySystem(got); err != nil {
			sound = append(sound, fmt.Sprintf("%s: %v", sp.id, err))
		}
	}
	verdict := func(name string, bad []string, okDetail string) check {
		if len(bad) > 0 {
			return fail(name, "%d systems; first: %s", len(bad), bad[0])
		}
		return pass(name, "%s", okDetail)
	}
	return []check{
		verdict("decisions", decisions, fmt.Sprintf("%d systems: every admit/reject equals the in-process online.System's", len(specs))),
		verdict("state", states, "every final state equals the in-process replay's"),
		verdict("guarantee", sound, "every final state passes exact RTA, Eq. 6 and exact response time per security task in commit order, with TDes <= Ts <= TMax"),
	}
}

// systemJSON is the wire form the server gives a system snapshot (the
// mapping of internal/service's GET /v1/systems/{id}).
func systemJSON(snap online.Snapshot) service.SystemJSON {
	out := service.SystemJSON{
		ID: snap.ID, Scheme: snap.Scheme, Heuristic: snap.Heuristic.String(), Cores: snap.M, Version: snap.Version,
		RTTasks: []service.SystemRTTaskJSON{}, SecurityTasks: []service.SystemSecTaskJSON{}, CumulativeTightness: snap.Cumulative,
	}
	for _, p := range snap.RT {
		j := service.SystemRTTaskJSON{Name: p.Task.Name, WCET: p.Task.C, Period: p.Task.T, Core: p.Core}
		if p.Task.D != p.Task.T {
			j.Deadline = p.Task.D
		}
		out.RTTasks = append(out.RTTasks, j)
	}
	for _, p := range snap.Sec {
		out.SecurityTasks = append(out.SecurityTasks, service.SystemSecTaskJSON{
			Name: p.Task.Name, WCET: p.Task.C, DesiredPeriod: p.Task.TDes, MaxPeriod: p.Task.TMax,
			Weight: p.Task.Weight, Core: p.Core, PeriodMS: p.Period, Tightness: p.Tightness(),
		})
	}
	return out
}

// verifySystem checks a committed system state against the paper's
// guarantee: every core's real-time tasks meet their deadlines under exact
// RTA, and every security task meets Eq. 6 and its exact response time at
// its adapted period in [TDes, TMax]. Security tasks are analyzed in commit
// order (the order the system lists them), the priority order the online
// layer admits them under; core.Verify and core.VerifyExact assume the
// TMax order of a cold allocation instead.
func verifySystem(sys service.SystemJSON) error {
	const tol = 1e-6
	st := rts.NewAnalysisState(sys.Cores)
	for _, t := range sys.RTTasks {
		if t.Core < 0 || t.Core >= sys.Cores {
			return fmt.Errorf("rt task %s on core %d", t.Name, t.Core)
		}
		d := t.Deadline
		if d == 0 {
			d = t.Period
		}
		st.SeedRT(t.Core, rts.RTTask{Name: t.Name, C: t.WCET, T: t.Period, D: d})
	}
	for c := 0; c < sys.Cores; c++ {
		if !st.RTSchedulable(c) {
			return fmt.Errorf("core %d: real-time tasks miss a deadline under exact RTA", c)
		}
	}
	for _, s := range sys.SecurityTasks {
		if s.Core < 0 || s.Core >= sys.Cores {
			return fmt.Errorf("security task %s on core %d", s.Name, s.Core)
		}
		if s.PeriodMS < s.DesiredPeriod*(1-tol) || s.PeriodMS > s.MaxPeriod*(1+tol) {
			return fmt.Errorf("security task %s: period %g outside [%g, %g]", s.Name, s.PeriodMS, s.DesiredPeriod, s.MaxPeriod)
		}
		if lhs := st.LinearSecurityBound(s.Core, s.WCET, s.PeriodMS); lhs > s.PeriodMS*(1+tol) {
			return fmt.Errorf("security task %s violates Eq. 6 on core %d: %g > %g", s.Name, s.Core, lhs, s.PeriodMS)
		}
		if r, ok, _ := st.SecurityResponseTime(s.Core, s.WCET, s.PeriodMS); !ok {
			return fmt.Errorf("security task %s: exact response time %g exceeds its period %g", s.Name, r, s.PeriodMS)
		}
		st.CommitSecurity(s.Core, s.WCET, s.PeriodMS)
	}
	return nil
}
