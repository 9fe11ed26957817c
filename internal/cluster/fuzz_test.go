package cluster

// Fuzz targets for the wire protocol: the frame reader and every payload
// decoder must survive arbitrary bytes from a corrupt or hostile peer
// without panicking, and anything they accept must re-encode to something
// they accept again. Run continuously with
//
//	go test -fuzz=FuzzReadFrame -fuzztime=30s ./internal/cluster
//	go test -fuzz=FuzzDecoders -fuzztime=30s ./internal/cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"graphpi/internal/taskpool"
)

// frameBytes encodes one frame for the seed corpus.
func frameBytes(t *testing.T, typ uint8, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	var seedT testing.T
	f.Add(frameBytes(&seedT, msgHello, encodeHello()))
	f.Add(frameBytes(&seedT, msgAck, encodeAck(taskpool.Range{Start: 3, End: 9}, 42)))
	f.Add(frameBytes(&seedT, msgSnapData, bytes.Repeat([]byte{0xAB}, 100)))
	f.Add(frameBytes(&seedT, msgJobDone, nil))
	// Hostile headers: oversized and zero-length frames.
	over := make([]byte, 5)
	binary.LittleEndian.PutUint32(over, maxFrame+1)
	f.Add(over)
	f.Add([]byte{0, 0, 0, 0, 7})
	f.Add([]byte{5, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if 1+len(payload) > maxFrame {
			t.Fatalf("readFrame accepted %d payload bytes past the %d frame bound", len(payload), maxFrame)
		}
		// Round-trip: re-encoding the accepted frame must reproduce the
		// exact bytes readFrame consumed.
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("frame round-trip mismatch:\n got %x\nwant %x", buf.Bytes(), data[:buf.Len()])
		}
	})
}

// FuzzDecoders drives every payload decoder; sel picks the decoder so one
// corpus covers the whole wire surface. A payload the decoder accepts must
// re-encode and decode again cleanly (decoders canonicalize, so only the
// second decode is required to be loss-free).
func FuzzDecoders(f *testing.F) {
	spec := &jobSpec{
		Rank: 1, NumRanks: 3, WorkersPerRank: 2, UseIEP: true,
		PatternN: 3, PatternName: "triangle",
		PatternEdges: [][2]int{{0, 1}, {1, 2}, {0, 2}},
		Order:        []uint8{0, 1, 2},
		Restrictions: [][2]uint8{{0, 1}},
		Graph:        graphFingerprint{NumVertices: 10, NumAdjSlots: 44, Name: "seed"},
	}
	tasks := []taskpool.Range{{Start: 0, End: 8}, {Start: 8, End: 16}}
	f.Add(uint8(0), encodeJob(spec))
	f.Add(uint8(1), encodeWelcome(4, graphFingerprint{NumVertices: 5}, true))
	f.Add(uint8(2), encodeHello())
	f.Add(uint8(3), encodeSnapBegin(1<<20))
	f.Add(uint8(4), encodeSnapOK(graphFingerprint{Name: "g", Reordered: true}))
	f.Add(uint8(5), encodeAck(taskpool.Range{Start: 2, End: 5}, -7))
	f.Add(uint8(6), encodeTasks(tasks))
	f.Add(uint8(7), encodeResult(RankResult{Raw: 99}))
	f.Add(uint8(6), encodeTasks(nil))
	faulty := *spec
	faulty.FailRank, faulty.FailAfterTasks, faulty.DelayNS = 2, 3, 1000
	f.Add(uint8(0), encodeJob(&faulty))

	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		switch sel % 8 {
		case 0:
			spec, err := decodeJob(payload)
			if err != nil {
				return
			}
			if _, err := decodeJob(encodeJob(spec)); err != nil {
				t.Fatalf("job round-trip: %v", err)
			}
		case 1:
			workers, fp, hasGraph, err := decodeWelcome(payload)
			if err != nil {
				return
			}
			if _, _, _, err := decodeWelcome(encodeWelcome(workers, fp, hasGraph)); err != nil {
				t.Fatalf("welcome round-trip: %v", err)
			}
		case 2:
			_ = decodeHello(payload)
		case 3:
			total, err := decodeSnapBegin(payload)
			if err != nil {
				return
			}
			if _, err := decodeSnapBegin(encodeSnapBegin(total)); err != nil {
				t.Fatalf("snap-begin round-trip: %v", err)
			}
		case 4:
			fp, err := decodeSnapOK(payload)
			if err != nil {
				return
			}
			if _, err := decodeSnapOK(encodeSnapOK(fp)); err != nil {
				t.Fatalf("snap-ok round-trip: %v", err)
			}
		case 5:
			task, delta, err := decodeAck(payload)
			if err != nil {
				return
			}
			if _, _, err := decodeAck(encodeAck(task, delta)); err != nil {
				t.Fatalf("ack round-trip: %v", err)
			}
		case 6:
			tasks, err := decodeTasks(payload)
			if err != nil {
				return
			}
			if _, err := decodeTasks(encodeTasks(tasks)); err != nil {
				t.Fatalf("tasks round-trip: %v", err)
			}
		case 7:
			res, err := decodeResult(payload)
			if err != nil {
				return
			}
			if _, err := decodeResult(encodeResult(res)); err != nil {
				t.Fatalf("result round-trip: %v", err)
			}
		}
	})
}
