package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameMessage compares two binary-frame messages field by field, floats by
// their bits, so NaN payloads and the sign of zero count.
func sameMessage(a, b *message) bool {
	if a.Type != b.Type || a.ID != b.ID || a.Pick != b.Pick || a.ModelVersion != b.ModelVersion ||
		a.Err != b.Err || !bytes.Equal(a.Weights, b.Weights) || !sameBits(a.Req.Now, b.Req.Now) ||
		len(a.Req.Queue) != len(b.Req.Queue) || len(a.Req.Running) != len(b.Req.Running) {
		return false
	}
	for i, x := range a.Req.Queue {
		y := b.Req.Queue[i]
		if !sameInts(x.Demand, y.Demand) || !sameBits(x.Walltime, y.Walltime) || !sameBits(x.Submit, y.Submit) {
			return false
		}
	}
	for i, x := range a.Req.Running {
		y := b.Req.Running[i]
		if x.JobID != y.JobID || !sameInts(x.Demand, y.Demand) || !sameBits(x.Start, y.Start) || !sameBits(x.EstEnd, y.EstEnd) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomBinaryMessage draws a message of any binary frame type with
// adversarial field values: NaNs with arbitrary payloads, infinities,
// negative zero, extreme and negative integers, empty slices.
func randomBinaryMessage(rng *rand.Rand) *message {
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(0x7ff0000000000000 | (rng.Uint64() & 0x000fffffffffffff) | 1) // NaN, random payload
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return math.Float64frombits(rng.Uint64())
		default:
			return (rng.Float64() - 0.5) * 1e6
		}
	}
	integer := func() int {
		switch rng.Intn(4) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -rng.Intn(1000)
		default:
			return rng.Intn(1000)
		}
	}
	ints := func() []int {
		if rng.Intn(5) == 0 {
			return nil
		}
		vs := make([]int, 1+rng.Intn(4))
		for i := range vs {
			vs[i] = integer()
		}
		return vs
	}
	m := &message{ID: rng.Uint64()}
	switch rng.Intn(4) {
	case 0:
		m.Type = msgDecide
		m.Req.Now = float()
		if n := rng.Intn(6); n > 0 {
			m.Req.Queue = make([]Job, n)
			for i := range m.Req.Queue {
				m.Req.Queue[i] = Job{Demand: ints(), Walltime: float(), Submit: float()}
			}
		}
		if n := rng.Intn(4); n > 0 {
			m.Req.Running = make([]Alloc, n)
			for i := range m.Req.Running {
				m.Req.Running[i] = Alloc{JobID: integer(), Demand: ints(), Start: float(), EstEnd: float()}
			}
		}
	case 1, 2:
		m.Type = msgDecision
		if rng.Intn(2) == 0 {
			m.Type = msgSwapped
		}
		m.Pick, m.ModelVersion = integer(), rng.Uint64()
		if rng.Intn(2) == 0 {
			m.Err = "serve: rejected \x00\xff"
		}
	case 3:
		m.Type = msgSwap
		if n := rng.Intn(64); n > 0 {
			m.Weights = make([]byte, n)
			rng.Read(m.Weights)
		}
	}
	return m
}

// TestBinaryCodecRoundTripIsBitExact is the property behind rule 1 on the
// wire: encode then decode reproduces every field bit for bit, and the
// encoding of the decoded message reproduces the original bytes.
func TestBinaryCodecRoundTripIsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var buf []byte
	for n := 0; n < 2000; n++ {
		m := randomBinaryMessage(rng)
		buf = appendMessage(buf[:0], m)
		got, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("message %d (%s): %v", n, m.Type, err)
		}
		if !sameMessage(m, got) {
			t.Fatalf("message %d: round trip changed\n%+v\nto\n%+v", n, m, got)
		}
		if again := appendMessage(nil, got); !bytes.Equal(again, buf) {
			t.Fatalf("message %d: re-encoding changed the bytes", n)
		}
	}
}

// TestBinaryCodecRejectsDamage covers the layout's own failure modes: every
// strict prefix of a frame, trailing bytes, frame types that belong to the
// handshake, and counts no remaining bytes could hold. Each fails with
// ErrCorruptFrame, and a few-byte frame declaring a huge count fails
// without allocating for that count.
func TestBinaryCodecRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n < 200; n++ {
		frame := appendMessage(nil, randomBinaryMessage(rng))
		for cut := 0; cut < len(frame); cut++ {
			if _, err := decodeMessage(frame[:cut]); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("frame cut to %d of %d bytes: %v, want ErrCorruptFrame", cut, len(frame), err)
			}
		}
		if _, err := decodeMessage(append(frame, 0)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("frame with a trailing byte: %v, want ErrCorruptFrame", err)
		}
	}
	for _, typ := range []msgType{0, msgHello, msgWelcome, msgSwapped + 1} {
		if _, err := decodeMessage([]byte{byte(typ), 1}); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("%s frame: %v, want ErrCorruptFrame", typ, err)
		}
	}

	const huge = 1 << 22 // ~230 MB as a []Job, ~32 MB as []int
	now := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	frames := [][]byte{
		binary.AppendUvarint(append([]byte{byte(msgDecide), 1}, now...), huge),            // queue
		binary.AppendUvarint(append([]byte{byte(msgDecide), 1}, append(now, 0)...), huge), // running
		binary.AppendUvarint(append([]byte{byte(msgDecide), 1}, append(now, 1)...), huge), // queue[0].Demand
		binary.AppendUvarint([]byte{byte(msgDecision), 1, 2, 3}, huge),                    // Err
		binary.AppendUvarint([]byte{byte(msgSwap), 1}, huge),                              // Weights
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, frame := range frames {
		if _, err := decodeMessage(frame); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("huge count %d: %v, want ErrCorruptFrame", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding %d tiny frames with huge counts allocated %d bytes", len(frames), grew)
	}
}

// TestEncodeDoesNotAllocate pins the hot path's allocation bound at
// GOMAXPROCS 1 and 2: encoding a Decide or a Decision into reused buffers,
// framing it, and writing it allocates nothing.
func TestEncodeDoesNotAllocate(t *testing.T) {
	req := randomRequest(rand.New(rand.NewSource(67)), testSystem())
	fw := frameWriter{w: io.Discard}
	var buf []byte
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for name, encode := range map[string]func(){
			"decide": func() { buf = appendMessage(buf[:0], &message{Type: msgDecide, ID: 5, Req: req}) },
			"decision": func() {
				buf = appendMessage(buf[:0], &message{Type: msgDecision, ID: 5, Pick: 3, ModelVersion: 2})
			},
			"decide frame": func() { fw.write(&message{Type: msgDecide, ID: 5, Req: req}) },
			"decision frame": func() {
				fw.write(&message{Type: msgDecision, ID: 5, Pick: 3, ModelVersion: 2})
			},
		} {
			encode() // size the reused buffers
			if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
				t.Errorf("GOMAXPROCS %d: encoding a %s allocates %.1f times, want 0", procs, name, allocs)
			}
		}
	}
}
