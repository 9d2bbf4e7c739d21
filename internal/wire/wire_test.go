package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func mustFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("the quick brown fox"),
		bytes.Repeat([]byte{0xAB, 0x00, 0xFF}, 10000),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	// All frames decode back, in order, from one contiguous stream.
	for i, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d round-tripped to %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("drained stream returned %v, want io.EOF", err)
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	frame := mustFrame(t, []byte("precious payload bytes"))
	for bit := 0; bit < len(frame)*8; bit += 7 {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		_, err := ReadFrame(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bitflip at %d decoded cleanly", bit)
		}
		// Header-length flips can turn into truncation errors; both wrap
		// ErrCorruptFrame.
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bitflip at %d: error %v does not wrap ErrCorruptFrame", bit, err)
		}
	}
}

func TestTruncatedFrameDetected(t *testing.T) {
	frame := mustFrame(t, []byte("will be cut short"))
	for cut := 1; cut < len(frame); cut++ {
		_, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d surfaced as clean io.EOF", cut)
		}
	}
}

func TestDamageDoesNotDesyncEarlierFrames(t *testing.T) {
	// A healthy frame followed by a damaged one: the first decodes, the
	// second fails loudly. (Past the damage the stream is abandoned by
	// contract; what matters is that damage never corrupts earlier frames.)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	bad := []byte("damaged")
	if err := WriteRawFrame(&buf, bad, len(bad), Checksum(bad)^0xFFFF); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || string(got) != "healthy" {
		t.Fatalf("healthy frame: %q, %v", got, err)
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("damaged frame returned %v, want ErrCorruptFrame", err)
	}
}

func TestOversizeDeclaredLengthRejected(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrameBytes+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize length returned %v, want ErrCorruptFrame", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize error %q does not name the bound", err)
	}
}

func TestOversizePayloadRefusedAtWrite(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1))
	if err == nil {
		t.Fatal("oversize payload written cleanly")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write left %d bytes on the stream", buf.Len())
	}
}

func TestCleanCloseIsEOF(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream returned %v, want io.EOF", err)
	}
	// EOF mid-header is damage, not a clean close.
	frame := mustFrame(t, []byte("abc"))
	if _, err := ReadFrame(bytes.NewReader(frame[:4])); err == io.EOF || err == nil {
		t.Fatalf("mid-header EOF returned %v, want a loud error", err)
	}
}

// writeCounter records the size of every Write call it receives.
type writeCounter struct {
	bytes.Buffer
	writes []int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestFrameIsOneWrite pins that a frame reaches the connection in a single
// Write — one syscall, and one segment under TCP_NODELAY — on the healthy
// path and on the fault harness's raw path alike.
func TestFrameIsOneWrite(t *testing.T) {
	var w writeCounter
	payload := []byte("one frame, one write")
	if err := WriteFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteRawFrame(&w, payload, len(payload)+5, Checksum(payload)); err != nil {
		t.Fatal(err)
	}
	want := headerBytes + len(payload)
	if len(w.writes) != 2 || w.writes[0] != want || w.writes[1] != want {
		t.Fatalf("two frames took writes of %v bytes, want [%d %d]", w.writes, want, want)
	}
}

// TestAppendFrameMatchesWriteFrame checks that frames appended into one
// reused buffer are the bytes WriteFrame emits and decode back in order.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payloads := [][]byte{nil, []byte("a"), bytes.Repeat([]byte{7}, 300)}
	var want bytes.Buffer
	var got []byte
	for _, p := range payloads {
		if err := WriteFrame(&want, p); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = AppendFrame(got, p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("AppendFrame bytes differ from WriteFrame bytes")
	}
	r := bytes.NewReader(got)
	for i, p := range payloads {
		back, err := ReadFrame(r)
		if err != nil || !bytes.Equal(back, p) {
			t.Fatalf("frame %d: %q, %v", i, back, err)
		}
	}
	if _, err := AppendFrame(got[:0], make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("AppendFrame accepted an oversize payload")
	}
}
