package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The serve wire format: one message per internal/wire frame, like the
// distributed-campaign protocol (internal/distrib) — the two protocols share
// the frame codec and differ in their message vocabulary and encoding.
//
// The handshake (hello, welcome) is one gob-encoded message struct per
// frame, unchanged since protocol 1, so that a peer on any revision can
// read the other's version and rejection. Every frame after the handshake
// uses the fixed binary layout of appendMessage: a msgType byte, then the
// type's fields in order — unsigned integers as uvarints, signed integers
// as varints, float64 values as their 8 little-endian math.Float64bits
// bytes, and slices, strings and byte strings as a uvarint count followed
// by their elements.

// ProtocolVersion gates the handshake in both directions: the daemon rejects
// a hello carrying another version and the client rejects a welcome carrying
// another version, each naming the peer's version in the error.
const ProtocolVersion = 2

// ErrCorruptFrame aliases wire.ErrCorruptFrame for errors.Is across layers.
var ErrCorruptFrame = wire.ErrCorruptFrame

type msgType uint8

const (
	// msgHello (client → server) opens the handshake.
	msgHello msgType = iota + 1
	// msgWelcome (server → client) answers it with the protocol version,
	// model version, and decision geometry (or a refusal in Err).
	msgWelcome
	// msgDecide (client → server) asks for one scheduling decision.
	msgDecide
	// msgDecision (server → client) answers one msgDecide by ID. A
	// request-level failure travels in Err with the connection intact.
	msgDecision
	// msgSwap (client → server) is the admin frame: publish new model
	// weights without dropping a single request.
	msgSwap
	// msgSwapped (server → client) acknowledges a swap with the new model
	// version (or the load error, with the previous model still serving).
	msgSwapped
)

func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgWelcome:
		return "welcome"
	case msgDecide:
		return "decide"
	case msgDecision:
		return "decision"
	case msgSwap:
		return "swap"
	case msgSwapped:
		return "swapped"
	}
	return fmt.Sprintf("msgType(%d)", uint8(t))
}

// Job is one queued job as the wire carries it: exactly the fields the
// state encoding and the Eq. (1) goal vector consume.
type Job struct {
	Demand   []int
	Walltime float64 // user-supplied runtime estimate, seconds
	Submit   float64 // submission time, seconds from trace start
}

// Alloc is one running job's holdings. JobID matters: the encoder orders
// running allocations by (EstEnd, JobID), so the daemon must reproduce the
// client's IDs to reproduce the client's encoding.
type Alloc struct {
	JobID  int
	Demand []int
	Start  float64
	EstEnd float64
}

// Request is one decision instant: "here is the queue and the cluster
// state, what do I schedule next?". Queue is the FULL waiting queue in
// queue order — the goal vector weighs every queued job, not just the
// window; the daemon takes the window as the queue's first W entries (W
// fixed by the served model). The answer indexes into that window.
type Request struct {
	Now     float64
	Queue   []Job
	Running []Alloc
}

// message is the single payload type of every frame; which fields are
// meaningful depends on Type. One struct keeps the protocol boring, exactly
// like distrib's.
type message struct {
	Type msgType

	// Hello and Welcome: protocol version of the sending binary.
	Proto int

	// Welcome: the served model's version and decision geometry, so a
	// client can validate its cluster model before asking anything.
	ModelVersion uint64
	Window       int
	Resources    []string
	Capacities   []int

	// Decide and Decision: the request ID (echoed), the request, and the
	// decision — a window index and the model version that produced it.
	ID   uint64
	Req  Request
	Pick int

	// Swap: gob-encoded model weights (nn.SaveWeights bytes).
	Weights []byte

	// Any reply: a request-level error. The connection stays usable.
	Err string
}

// writeHandshake gob-encodes a hello or welcome and writes it as one frame.
func writeHandshake(w io.Writer, m *message) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("serve: encoding %s frame: %w", m.Type, err)
	}
	return wire.WriteFrame(w, buf.Bytes())
}

// readHandshake reads and gob-decodes a hello or welcome frame. io.EOF
// passes through untouched; any damage wraps ErrCorruptFrame.
func readHandshake(r io.Reader) (*message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeHandshake(payload)
}

// decodeHandshake gob-decodes one verified handshake payload; gob damage
// wraps ErrCorruptFrame like any other frame corruption.
func decodeHandshake(payload []byte) (*message, error) {
	var m message
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: decoding handshake payload: %v", ErrCorruptFrame, err)
	}
	return &m, nil
}

// maxRetainedBytes caps the encode buffers a frameWriter keeps between
// frames: decide and decision frames stay well below it and reuse their
// buffers, while a swap frame (megabytes of weights) does not pin its size
// for the life of the connection.
const maxRetainedBytes = 64 << 10

// frameWriter writes post-handshake messages, encoding each into reused
// buffers and handing it to the connection in one Write. Its owner
// serializes calls (the server's per-connection write mutex, the client's
// request mutex).
type frameWriter struct {
	w       io.Writer
	payload []byte
	frame   []byte
}

func (fw *frameWriter) write(m *message) error {
	fw.payload = appendMessage(fw.payload[:0], m)
	var err error
	if fw.frame, err = wire.AppendFrame(fw.frame[:0], fw.payload); err != nil {
		return fmt.Errorf("serve: encoding %s frame: %w", m.Type, err)
	}
	_, err = fw.w.Write(fw.frame)
	if cap(fw.frame) > maxRetainedBytes {
		fw.payload, fw.frame = nil, nil
	}
	if err != nil {
		return fmt.Errorf("serve: writing %s frame: %w", m.Type, err)
	}
	return nil
}

// appendMessage appends the binary encoding of a post-handshake message
// (decide, decision, swap, swapped) to dst. It writes only the fields its
// type carries, and it does not allocate when dst has room.
func appendMessage(dst []byte, m *message) []byte {
	dst = append(dst, byte(m.Type))
	dst = binary.AppendUvarint(dst, m.ID)
	switch m.Type {
	case msgDecide:
		dst = appendFloat(dst, m.Req.Now)
		dst = binary.AppendUvarint(dst, uint64(len(m.Req.Queue)))
		for i := range m.Req.Queue {
			j := &m.Req.Queue[i]
			dst = appendInts(dst, j.Demand)
			dst = appendFloat(dst, j.Walltime)
			dst = appendFloat(dst, j.Submit)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Req.Running)))
		for i := range m.Req.Running {
			a := &m.Req.Running[i]
			dst = binary.AppendVarint(dst, int64(a.JobID))
			dst = appendInts(dst, a.Demand)
			dst = appendFloat(dst, a.Start)
			dst = appendFloat(dst, a.EstEnd)
		}
	case msgDecision, msgSwapped:
		dst = binary.AppendVarint(dst, int64(m.Pick))
		dst = binary.AppendUvarint(dst, m.ModelVersion)
		dst = binary.AppendUvarint(dst, uint64(len(m.Err)))
		dst = append(dst, m.Err...)
	case msgSwap:
		dst = binary.AppendUvarint(dst, uint64(len(m.Weights)))
		dst = append(dst, m.Weights...)
	default:
		panic(fmt.Sprintf("serve: %s is not a binary frame type", m.Type))
	}
	return dst
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// readMessage reads and decodes one post-handshake frame. io.EOF passes
// through untouched; any damage wraps ErrCorruptFrame (via wire or
// decodeMessage).
func readMessage(r io.Reader) (*message, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(payload)
}

// decodeMessage decodes one verified post-handshake payload, the inverse of
// appendMessage. Every failure — an unknown type byte, a truncated field, a
// count larger than the bytes left could hold, trailing bytes — wraps
// ErrCorruptFrame. It is the layer FuzzDecodeRequest drives.
func decodeMessage(payload []byte) (*message, error) {
	d := decoder{b: payload}
	m := &message{Type: msgType(d.byte())}
	switch m.Type {
	case msgDecide:
		m.ID = d.uvarint()
		m.Req.Now = d.float()
		// A queued job takes at least 17 bytes: its demand count and two
		// floats. A running job takes at least 18: its ID, demand count and
		// two floats.
		if n := d.count(17); n > 0 {
			m.Req.Queue = make([]Job, n)
			for i := range m.Req.Queue {
				j := &m.Req.Queue[i]
				j.Demand = d.ints()
				j.Walltime = d.float()
				j.Submit = d.float()
			}
		}
		if n := d.count(18); n > 0 {
			m.Req.Running = make([]Alloc, n)
			for i := range m.Req.Running {
				a := &m.Req.Running[i]
				a.JobID = d.int()
				a.Demand = d.ints()
				a.Start = d.float()
				a.EstEnd = d.float()
			}
		}
	case msgDecision, msgSwapped:
		m.ID = d.uvarint()
		m.Pick = d.int()
		m.ModelVersion = d.uvarint()
		m.Err = string(d.raw())
	case msgSwap:
		m.ID = d.uvarint()
		m.Weights = append([]byte(nil), d.raw()...)
	default:
		if d.err == nil {
			d.err = fmt.Errorf("unexpected %s frame after the handshake", m.Type)
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes after the %s frame", len(d.b), m.Type)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorruptFrame, d.err)
	}
	return m, nil
}

// decoder reads the binary layout front to back. The first failure sticks:
// later reads return zero values, and decodeMessage reports the first
// failure.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated or malformed %s", what)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) < 1 {
		d.fail("frame type")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count and checks it against the bytes left, each
// element taking at least minBytes, so a damaged count fails here instead
// of sizing an allocation.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
		d.b = nil
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.int()
	}
	return vs
}

// raw reads a byte string, aliasing the payload.
func (d *decoder) raw() []byte {
	n := d.count(1)
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// buildContext validates a request against the served system and
// reconstructs the decision instant: a live cluster with the request's
// allocations applied, the queue, the window (the queue's first W entries),
// and the measurement vector. Every reconstruction is exact — the binary codec
// carries float64 bits verbatim and the cluster derives Usage from the same integer
// arithmetic the simulator uses — which is what makes served decisions
// byte-identical to offline ones. Validation is exhaustive: anything that
// could panic the encoder is rejected here, with the connection intact.
func buildContext(sys cluster.Config, window int, req *Request) (*sched.PickContext, error) {
	r := len(sys.Capacities)
	if len(req.Queue) == 0 {
		return nil, fmt.Errorf("serve: request has an empty queue; there is nothing to schedule")
	}
	cl := cluster.New(sys)
	for i, a := range req.Running {
		if len(a.Demand) != r {
			return nil, fmt.Errorf("serve: running[%d] demands %d resources, system has %d", i, len(a.Demand), r)
		}
		if err := cl.Allocate(a.JobID, a.Demand, a.Start, a.EstEnd); err != nil {
			return nil, fmt.Errorf("serve: request cluster state: %w", err)
		}
	}
	queue := make([]*job.Job, len(req.Queue))
	for i, q := range req.Queue {
		if len(q.Demand) != r {
			return nil, fmt.Errorf("serve: queue[%d] demands %d resources, system has %d", i, len(q.Demand), r)
		}
		queue[i] = &job.Job{ID: i, Submit: q.Submit, Walltime: q.Walltime, Demand: q.Demand}
	}
	w := window
	if w > len(queue) {
		w = len(queue)
	}
	return &sched.PickContext{
		Now:     req.Now,
		Window:  queue[:w],
		Queue:   queue,
		Cluster: cl,
		Usage:   cl.Usage(),
	}, nil
}

// RequestFromContext converts a live decision instant into its wire form —
// the bridge between an in-process scheduling loop and the daemon, used by
// the load generator's trace capture and the equivalence tests.
func RequestFromContext(ctx *sched.PickContext) Request {
	req := Request{Now: ctx.Now, Queue: make([]Job, len(ctx.Queue))}
	for i, j := range ctx.Queue {
		req.Queue[i] = Job{
			Demand:   append([]int(nil), j.Demand...),
			Walltime: j.Walltime,
			Submit:   j.Submit,
		}
	}
	running := ctx.Cluster.Running()
	req.Running = make([]Alloc, len(running))
	for i, a := range running {
		req.Running[i] = Alloc{
			JobID:  a.JobID,
			Demand: append([]int(nil), a.Demand...),
			Start:  a.Start,
			EstEnd: a.EstEnd,
		}
	}
	return req
}
