package cluster

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/taskpool"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := writeFrame(&buf, msgTasks, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, msgJobDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil || typ != msgTasks || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: typ=%d payload=%q err=%v", typ, got, err)
	}
	typ, got, err = readFrame(&buf)
	if err != nil || typ != msgJobDone || got != nil {
		t.Fatalf("frame 2: typ=%d payload=%q err=%v", typ, got, err)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Length 0 (no type byte) and an absurd length must both be rejected
	// before any allocation.
	for _, hdr := range [][]byte{
		{0, 0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0x7f, 1},
	} {
		if _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
			t.Errorf("header % x accepted", hdr)
		}
	}
}

func TestJobSpecRoundTrip(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 1)
	cfg := planFor(t, g, pattern.House())
	job := &Job{
		Bound:          cfg.Bind(true, core.TierAuto),
		Graph:          g,
		WorkersPerRank: 3,
		NodeDelay:      5 * time.Millisecond,
		DelayedRank:    1,
	}
	spec := jobSpecOf(job, 2, 4)
	decoded, err := decodeJob(encodeJob(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, decoded) {
		t.Fatalf("round trip mismatch:\n  sent %+v\n  got  %+v", spec, decoded)
	}
	rebuilt, err := decoded.compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// The planner's Cost is deliberately not shipped (workers execute, they
	// don't re-plan); compare the executable parts.
	if rebuilt.Bound.Config().Schedule.String() != cfg.Schedule.String() ||
		rebuilt.Bound.Config().Restrictions.String() != cfg.Restrictions.String() ||
		!rebuilt.Bound.Config().Pattern.Isomorphic(cfg.Pattern) {
		t.Errorf("recompiled config %s != %s", rebuilt.Bound.Config(), cfg)
	}
	if rebuilt.NodeDelay != job.NodeDelay || rebuilt.DelayedRank != job.DelayedRank ||
		!rebuilt.Bound.IEP() || rebuilt.WorkersPerRank != 3 {
		t.Errorf("job options lost: %+v", rebuilt)
	}
}

// TestWireVersion pins protocol version 4, whose job frame carries no task
// shape: the UseIEP byte is followed directly by the injected delay. A peer
// speaking version 3 fails the handshake from either side.
func TestWireVersion(t *testing.T) {
	if wireVersion != 4 {
		t.Fatalf("wireVersion = %d, want 4", wireVersion)
	}
	g := graph.BarabasiAlbert(120, 3, 1)
	job := &Job{Bound: planFor(t, g, pattern.House()).Bind(true, core.TierAuto), Graph: g,
		WorkersPerRank: 3, NodeDelay: 0x0102030405060708}
	payload := encodeJob(jobSpecOf(job, 2, 4))
	const iepAt = 12 // after rank, nranks and workers
	if payload[iepAt] != 1 {
		t.Fatalf("job frame: UseIEP byte %d, want 1", payload[iepAt])
	}
	if got := binary.LittleEndian.Uint64(payload[iepAt+1:]); got != uint64(job.NodeDelay) {
		t.Errorf("job frame: the delay after UseIEP reads %#x, want %#x", got, uint64(job.NodeDelay))
	}

	var w wbuf
	w.str(wireMagic)
	w.u32(3)
	if err := decodeHello(w.b); err == nil {
		t.Error("a version-3 hello was accepted")
	}
	welcome := encodeWelcome(2, fingerprintOf(g), true)
	binary.LittleEndian.PutUint32(welcome, 3)
	if _, _, _, err := decodeWelcome(welcome); err == nil {
		t.Error("a version-3 welcome was accepted")
	}
}

// TestDecodersRejectTruncation feeds every strict prefix of valid payloads
// to the decoders: each must error, never panic or silently succeed.
func TestDecodersRejectTruncation(t *testing.T) {
	g := graph.GNP(40, 0.3, 2)
	cfg := planFor(t, g, pattern.Triangle())
	job := &Job{Bound: cfg.Bind(false, core.TierAuto), Graph: g, WorkersPerRank: 1}
	tasks := []taskpool.Range{{Start: 0, End: 7}, {Start: 7, End: 40}}

	cases := map[string]struct {
		payload []byte
		decode  func([]byte) error
	}{
		"job": {encodeJob(jobSpecOf(job, 0, 2)), func(b []byte) error {
			_, err := decodeJob(b)
			return err
		}},
		"tasks": {encodeTasks(tasks), func(b []byte) error {
			_, err := decodeTasks(b)
			return err
		}},
		"result": {encodeResult(RankResult{Raw: 42, Stats: NodeStats{TasksRun: 3}}), func(b []byte) error {
			_, err := decodeResult(b)
			return err
		}},
		"welcome": {encodeWelcome(2, fingerprintOf(g), true), func(b []byte) error {
			_, _, _, err := decodeWelcome(b)
			return err
		}},
		"ack": {encodeAck(taskpool.Range{Start: 3, End: 9}, 17), func(b []byte) error {
			_, _, err := decodeAck(b)
			return err
		}},
		"snapBegin": {encodeSnapBegin(1 << 20), func(b []byte) error {
			_, err := decodeSnapBegin(b)
			return err
		}},
		"snapOK": {encodeSnapOK(fingerprintOf(g)), func(b []byte) error {
			_, err := decodeSnapOK(b)
			return err
		}},
		"hello": {encodeHello(), decodeHello},
	}
	for name, tc := range cases {
		if err := tc.decode(tc.payload); err != nil {
			t.Errorf("%s: full payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(tc.payload); cut++ {
			if err := tc.decode(tc.payload[:cut]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes accepted", name, cut, len(tc.payload))
				break
			}
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	want := taskpool.Range{Start: 12, End: 345}
	task, delta, err := decodeAck(encodeAck(want, -7))
	if err != nil {
		t.Fatal(err)
	}
	if task != want || delta != -7 {
		t.Errorf("ack round trip: task=%+v delta=%d", task, delta)
	}
}

func TestWelcomeCarriesReplicaState(t *testing.T) {
	g := graph.GNP(30, 0.4, 3)
	fp := fingerprintOf(g)
	for _, hasGraph := range []bool{false, true} {
		workers, got, gotHas, err := decodeWelcome(encodeWelcome(5, fp, hasGraph))
		if err != nil {
			t.Fatal(err)
		}
		if workers != 5 || got != fp || gotHas != hasGraph {
			t.Errorf("welcome(hasGraph=%v) round trip: workers=%d has=%v fp match=%v",
				hasGraph, workers, gotHas, got == fp)
		}
	}
}

func TestJobSpecCarriesFaultInjection(t *testing.T) {
	g := graph.GNP(40, 0.3, 9)
	cfg := planFor(t, g, pattern.Triangle())
	job := &Job{Bound: cfg.Bind(false, core.TierAuto), Graph: g, WorkersPerRank: 1, FailRank: 1, FailAfterTasks: 4}
	spec := jobSpecOf(job, 1, 3)
	decoded, err := decodeJob(encodeJob(spec))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.FailRank != 1 || decoded.FailAfterTasks != 4 {
		t.Errorf("fault fields lost: %+v", decoded)
	}
	rebuilt, err := decoded.compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.FailRank != 1 || rebuilt.FailAfterTasks != 4 {
		t.Errorf("compiled job lost fault fields: %+v", rebuilt)
	}
}

func TestSnapBeginBounds(t *testing.T) {
	if _, err := decodeSnapBegin(encodeSnapBegin(maxSnapshot + 1)); err == nil {
		t.Error("oversized snapshot length accepted")
	}
	if _, err := decodeSnapBegin(encodeSnapBegin(0)); err == nil {
		t.Error("empty snapshot accepted")
	}
	n, err := decodeSnapBegin(encodeSnapBegin(123))
	if err != nil || n != 123 {
		t.Errorf("snapBegin round trip: n=%d err=%v", n, err)
	}
}

func TestFingerprintCheck(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 4)
	fp := fingerprintOf(g)
	if err := fp.check(fp); err != nil {
		t.Fatalf("self check failed: %v", err)
	}
	other := fingerprintOf(g.Reorder())
	if err := fp.check(other); err == nil {
		t.Error("reordered replica accepted for plain master graph")
	}
	// Unnamed sides are compatible with named ones (a generated master
	// graph vs a snapshot that carries a label).
	unnamed := fp
	unnamed.Name = ""
	named := fp
	named.Name = "ds"
	if err := unnamed.check(named); err != nil {
		t.Errorf("unnamed master rejected named worker: %v", err)
	}
	other2 := named
	other2.Name = "ds2"
	if err := named.check(other2); err == nil {
		t.Error("conflicting dataset names accepted")
	}
}
