package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
)

// The cluster's wire protocol, spoken over a TCP connection or an in-process
// net.Pipe alike. Every message is a length-prefixed little-endian frame:
//
//	length  uint32  payload length, including the type byte
//	type    uint8   message discriminator (msg* constants)
//	payload []byte  message-specific, little-endian fields
//
// Connection lifecycle (master ↔ worker):
//
//	master → hello      magic + protocol version           (join)
//	worker → welcome    version, workers, graph fingerprint, has-graph flag
//	— snapshot fetch (only when the worker joined cold, before its first job) —
//	master → snapBegin  total snapshot length
//	master → snapData   one chunk of the GPiCSR binary snapshot
//	master → snapEnd    end of snapshot
//	worker → snapOK     fingerprint of the freshly loaded replica
//	— per job —
//	master → job        rank, nranks, config spec, options
//	worker → jobOK | error
//	— while the job runs —
//	master → tasks      a grant: at job start, after each ack, after a loss
//	worker → ack        one task completed: its range + raw count delta
//	— reduce —
//	master → jobDone    every task acknowledged; no more grants
//	worker → result     raw tally + per-rank statistics; awaits the next job
//
// Closing the connection at any point is a leave: the worker returns to
// accepting masters, the master reports the rank lost and puts the rank's
// unacknowledged tasks back in its queue for the survivors (see
// tcp_transport.go).

// wireMagic opens every session; a mismatch fails the handshake before any
// job state exists. Bump wireVersion when the frame layout changes.
const (
	wireMagic   = "GPiTP1\n"
	wireVersion = 4

	// maxFrame bounds a frame payload so a corrupt or hostile peer cannot
	// drive an arbitrary allocation (a grant of ~1M tasks fits comfortably).
	maxFrame = 1 << 26
)

// Message types.
const (
	msgHello uint8 = iota + 1
	msgWelcome
	msgJob
	msgJobOK
	msgError
	msgTasks
	msgResult
	msgJobDone
	msgAck
	msgSnapBegin
	msgSnapData
	msgSnapEnd
	msgSnapOK
)

// writeFrame emits one frame as a single Write. The caller serializes
// concurrent writers.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	buf := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, enforcing the size bound.
func readFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d out of range", n)
	}
	typ = hdr[4]
	if n > 1 {
		payload = make([]byte, n-1)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return typ, payload, nil
}

// wbuf is a little-endian payload builder.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) i64(v int64)  { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) ranges(ts []taskpool.Range) {
	w.u32(uint32(len(ts)))
	for _, t := range ts {
		w.i64(int64(t.Start))
		w.i64(int64(t.End))
	}
}

// rbuf is the matching reader; the first malformed field poisons it and
// every later read reports the sticky error.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: truncated %s field", what)
	}
}

func (r *rbuf) u8(what string) uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) u32(what string) uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *rbuf) i64(what string) int64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *rbuf) str(what string) string {
	n := r.u32(what)
	if r.err != nil || uint32(len(r.b)) < n {
		r.fail(what)
		return ""
	}
	v := string(r.b[:n])
	r.b = r.b[n:]
	return v
}

func (r *rbuf) ranges(what string) []taskpool.Range {
	n := r.u32(what)
	if r.err != nil || uint64(len(r.b)) < uint64(n)*16 {
		r.fail(what)
		return nil
	}
	out := make([]taskpool.Range, n)
	for i := range out {
		out[i] = taskpool.Range{Start: int(r.i64(what)), End: int(r.i64(what))}
	}
	return out
}

// graphFingerprint identifies a data graph well enough to catch a master and
// a worker operating on different replicas: the structural sizes plus the
// degree-ordered flag (an Optimize()d master view against a plain worker
// snapshot would silently count wrong without it).
type graphFingerprint struct {
	NumVertices int64
	NumAdjSlots int64
	Reordered   bool
	Name        string
}

func fingerprintOf(g *graph.Graph) graphFingerprint {
	return graphFingerprint{
		NumVertices: int64(g.NumVertices()),
		NumAdjSlots: int64(g.NumAdjSlots()),
		Reordered:   g.IsReordered(),
		Name:        g.Name(),
	}
}

// check reports why a worker's replica w cannot serve a master's graph m.
func (m graphFingerprint) check(w graphFingerprint) error {
	if m.NumVertices != w.NumVertices || m.NumAdjSlots != w.NumAdjSlots {
		return fmt.Errorf("graph mismatch: master has %d vertices/%d slots, worker has %d/%d",
			m.NumVertices, m.NumAdjSlots, w.NumVertices, w.NumAdjSlots)
	}
	if m.Reordered != w.Reordered {
		return fmt.Errorf("graph mismatch: master reordered=%v, worker reordered=%v (both sides must load the same Optimize()d snapshot)",
			m.Reordered, w.Reordered)
	}
	if m.Name != "" && w.Name != "" && m.Name != w.Name {
		return fmt.Errorf("graph mismatch: master dataset %q, worker dataset %q", m.Name, w.Name)
	}
	return nil
}

func (f graphFingerprint) encode(w *wbuf) {
	w.i64(f.NumVertices)
	w.i64(f.NumAdjSlots)
	if f.Reordered {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(f.Name)
}

func decodeFingerprint(r *rbuf) graphFingerprint {
	return graphFingerprint{
		NumVertices: r.i64("fingerprint vertices"),
		NumAdjSlots: r.i64("fingerprint slots"),
		Reordered:   r.u8("fingerprint reordered") != 0,
		Name:        r.str("fingerprint name"),
	}
}

// FingerprintKey renders the handshake fingerprint of a graph as a stable
// string: |V|, adjacency slot count, the degree-ordered flag and the dataset
// name — exactly the identity the TCP fabric uses to verify that a master
// and a worker hold the same replica. Resident runtimes (the query service)
// reuse it as the graph component of their plan-cache keys, so a cache entry
// can never outlive the graph identity it was planned against.
func FingerprintKey(g *graph.Graph) string {
	fp := fingerprintOf(g)
	return fmt.Sprintf("v%d:s%d:r%t:%s", fp.NumVertices, fp.NumAdjSlots, fp.Reordered, fp.Name)
}

// jobSpec is the wire form of a Job: the bound configuration is shipped as
// its inputs (pattern, schedule, restrictions, and UseIEP: whether it walks
// the IEP nest), recompiled by core.NewConfig and rebound on the worker —
// compilation is deterministic, so both sides execute the identical loop
// program and counts stay bit-identical. No task shape travels: the rebound
// configuration has the master's task space (core.Bound.RootTasks).
type jobSpec struct {
	Rank           int
	NumRanks       int
	WorkersPerRank int
	UseIEP         bool
	DelayNS        int64
	DelayedRank    int
	FailRank       int
	FailAfterTasks int

	PatternN     int
	PatternName  string
	PatternEdges [][2]int
	Order        []uint8
	Restrictions [][2]uint8

	Graph graphFingerprint
}

func encodeJob(spec *jobSpec) []byte {
	var w wbuf
	w.u32(uint32(spec.Rank))
	w.u32(uint32(spec.NumRanks))
	w.u32(uint32(spec.WorkersPerRank))
	if spec.UseIEP {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.i64(spec.DelayNS)
	w.u32(uint32(spec.DelayedRank))
	w.u32(uint32(spec.FailRank))
	w.u32(uint32(spec.FailAfterTasks))
	w.u8(uint8(spec.PatternN))
	w.str(spec.PatternName)
	w.u32(uint32(len(spec.PatternEdges)))
	for _, e := range spec.PatternEdges {
		w.u8(uint8(e[0]))
		w.u8(uint8(e[1]))
	}
	w.u32(uint32(len(spec.Order)))
	w.b = append(w.b, spec.Order...)
	w.u32(uint32(len(spec.Restrictions)))
	for _, p := range spec.Restrictions {
		w.u8(p[0])
		w.u8(p[1])
	}
	spec.Graph.encode(&w)
	return w.b
}

func decodeJob(payload []byte) (*jobSpec, error) {
	r := &rbuf{b: payload}
	spec := &jobSpec{
		Rank:           int(r.u32("rank")),
		NumRanks:       int(r.u32("nranks")),
		WorkersPerRank: int(r.u32("workers")),
		UseIEP:         r.u8("useIEP") != 0,
		DelayNS:        r.i64("delayNS"),
		DelayedRank:    int(r.u32("delayedRank")),
		FailRank:       int(r.u32("failRank")),
		FailAfterTasks: int(r.u32("failAfterTasks")),
	}
	spec.PatternN = int(r.u8("pattern size"))
	spec.PatternName = r.str("pattern name")
	ne := r.u32("pattern edge count")
	if r.err == nil && uint32(len(r.b)) < ne*2 {
		r.fail("pattern edges")
	}
	for i := uint32(0); i < ne && r.err == nil; i++ {
		spec.PatternEdges = append(spec.PatternEdges,
			[2]int{int(r.u8("edge")), int(r.u8("edge"))})
	}
	no := r.u32("schedule length")
	if r.err == nil && uint32(len(r.b)) < no {
		r.fail("schedule order")
	}
	for i := uint32(0); i < no && r.err == nil; i++ {
		spec.Order = append(spec.Order, r.u8("schedule order"))
	}
	nr := r.u32("restriction count")
	if r.err == nil && uint32(len(r.b)) < nr*2 {
		r.fail("restrictions")
	}
	for i := uint32(0); i < nr && r.err == nil; i++ {
		spec.Restrictions = append(spec.Restrictions,
			[2]uint8{r.u8("restriction"), r.u8("restriction")})
	}
	spec.Graph = decodeFingerprint(r)
	if r.err != nil {
		return nil, r.err
	}
	return spec, nil
}

// jobSpecOf flattens a Job for the wire.
func jobSpecOf(job *Job, rankID, nranks int) *jobSpec {
	cfg := job.Bound.Config()
	return &jobSpec{
		Rank:           rankID,
		NumRanks:       nranks,
		WorkersPerRank: job.WorkersPerRank,
		UseIEP:         job.Bound.IEP(),
		DelayNS:        int64(job.NodeDelay),
		DelayedRank:    job.DelayedRank,
		FailRank:       job.FailRank,
		FailAfterTasks: job.FailAfterTasks,
		PatternN:       cfg.Pattern.N(),
		PatternName:    cfg.Pattern.Name(),
		PatternEdges:   cfg.Pattern.Edges(),
		Order:          append([]uint8(nil), cfg.Schedule.Order...),
		Restrictions:   restrictionPairs(cfg.Restrictions),
		Graph:          fingerprintOf(job.Graph),
	}
}

func restrictionPairs(rs restrict.Set) [][2]uint8 {
	out := make([][2]uint8, len(rs))
	for i, r := range rs {
		out[i] = [2]uint8{r.First, r.Second}
	}
	return out
}

// compile rebuilds the executable Job on the worker side against its local
// graph replica.
func (spec *jobSpec) compile(g *graph.Graph) (*Job, error) {
	if err := spec.Graph.check(fingerprintOf(g)); err != nil {
		return nil, err
	}
	pat, err := pattern.New(spec.PatternN, spec.PatternEdges, spec.PatternName)
	if err != nil {
		return nil, fmt.Errorf("bad pattern: %w", err)
	}
	rs := make(restrict.Set, len(spec.Restrictions))
	for i, p := range spec.Restrictions {
		rs[i] = restrict.Restriction{First: p[0], Second: p[1]}
	}
	cfg, err := core.NewConfig(pat, schedule.Schedule{Order: spec.Order}, rs)
	if err != nil {
		return nil, fmt.Errorf("bad configuration: %w", err)
	}
	if spec.WorkersPerRank < 1 {
		return nil, fmt.Errorf("bad job options: workers=%d", spec.WorkersPerRank)
	}
	return &Job{
		Bound:          cfg.Bind(spec.UseIEP, core.TierAuto),
		Graph:          g,
		WorkersPerRank: spec.WorkersPerRank,
		NodeDelay:      time.Duration(spec.DelayNS),
		DelayedRank:    spec.DelayedRank,
		FailRank:       spec.FailRank,
		FailAfterTasks: spec.FailAfterTasks,
	}, nil
}

// Result frame payload.

func encodeResult(res RankResult) []byte {
	var w wbuf
	w.i64(res.Raw)
	w.i64(res.Stats.TasksRun)
	w.i64(int64(res.Stats.BusyTime))
	return w.b
}

func decodeResult(payload []byte) (RankResult, error) {
	r := &rbuf{b: payload}
	res := RankResult{
		Raw: r.i64("raw count"),
		Stats: NodeStats{
			TasksRun: r.i64("tasks run"),
			BusyTime: time.Duration(r.i64("busy time")),
		},
	}
	return res, r.err
}

// Hello / welcome payloads.

func encodeHello() []byte {
	var w wbuf
	w.str(wireMagic)
	w.u32(wireVersion)
	return w.b
}

func decodeHello(payload []byte) error {
	r := &rbuf{b: payload}
	magic := r.str("magic")
	version := r.u32("version")
	if r.err != nil {
		return r.err
	}
	if magic != wireMagic {
		return fmt.Errorf("cluster: bad hello magic %q", magic)
	}
	if version != wireVersion {
		return fmt.Errorf("cluster: protocol version %d, want %d", version, wireVersion)
	}
	return nil
}

// The welcome carries hasGraph so a worker can join cold: a worker started
// without a local snapshot advertises hasGraph=false (and a zero
// fingerprint), and the master pushes the fingerprint-verified view over the
// connection before the first job (snapBegin/snapData/snapEnd/snapOK).
func encodeWelcome(workers int, fp graphFingerprint, hasGraph bool) []byte {
	var w wbuf
	w.u32(wireVersion)
	w.u32(uint32(workers))
	if hasGraph {
		w.u8(1)
	} else {
		w.u8(0)
	}
	fp.encode(&w)
	return w.b
}

func decodeWelcome(payload []byte) (workers int, fp graphFingerprint, hasGraph bool, err error) {
	r := &rbuf{b: payload}
	version := r.u32("version")
	workers = int(r.u32("workers"))
	hasGraph = r.u8("hasGraph") != 0
	fp = decodeFingerprint(r)
	if r.err != nil {
		return 0, graphFingerprint{}, false, r.err
	}
	if version != wireVersion {
		return 0, graphFingerprint{}, false, fmt.Errorf("cluster: worker protocol version %d, want %d", version, wireVersion)
	}
	return workers, fp, hasGraph, nil
}

func encodeTasks(tasks []taskpool.Range) []byte {
	var w wbuf
	w.ranges(tasks)
	return w.b
}

func decodeTasks(payload []byte) ([]taskpool.Range, error) {
	r := &rbuf{b: payload}
	ts := r.ranges("tasks")
	return ts, r.err
}

// Ack frames carry the completed task's identity (ranges are granted whole,
// so the range is the identity) plus the raw count delta its
// execution earned. The master banks the delta: if the rank is later lost,
// its acknowledged work survives as banked counts and only unacknowledged
// tasks are granted again — re-execution stays exactly-once from the count's
// point of view.

func encodeAck(t taskpool.Range, delta int64) []byte {
	var w wbuf
	w.i64(int64(t.Start))
	w.i64(int64(t.End))
	w.i64(delta)
	return w.b
}

func decodeAck(payload []byte) (t taskpool.Range, delta int64, err error) {
	r := &rbuf{b: payload}
	t = taskpool.Range{Start: int(r.i64("ack start")), End: int(r.i64("ack end"))}
	delta = r.i64("ack delta")
	return t, delta, r.err
}

// Snapshot frames: the master streams the GPiCSR binary snapshot to a cold
// worker in bounded chunks; the worker loads it and answers with the new
// replica's fingerprint so the master can verify the transfer.

// maxSnapshot bounds a pushed snapshot so a corrupt length cannot drive an
// arbitrary allocation on the worker.
const maxSnapshot = 1 << 36

func encodeSnapBegin(total int64) []byte {
	var w wbuf
	w.i64(total)
	return w.b
}

func decodeSnapBegin(payload []byte) (int64, error) {
	r := &rbuf{b: payload}
	total := r.i64("snapshot length")
	if r.err != nil {
		return 0, r.err
	}
	if total <= 0 || total > maxSnapshot {
		return 0, fmt.Errorf("cluster: snapshot length %d out of range", total)
	}
	return total, nil
}

func encodeSnapOK(fp graphFingerprint) []byte {
	var w wbuf
	fp.encode(&w)
	return w.b
}

func decodeSnapOK(payload []byte) (graphFingerprint, error) {
	r := &rbuf{b: payload}
	fp := decodeFingerprint(r)
	return fp, r.err
}
