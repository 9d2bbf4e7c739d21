package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"
)

// FuzzDecodeRequest wires the serve protocol's two payload codecs to the
// shared fuzz discipline (wire.FuzzDecodeFrame, distrib.FuzzDecodeMessage):
// an arbitrary CRC-verified payload must either decode into a message or
// fail loudly with ErrCorruptFrame — never panic, never succeed silently
// with a half-decoded struct that later trips the server. Every payload
// goes through both the gob handshake decoder and the binary decoder of the
// frames after it. The corpus seeds every real frame type plus the
// standard damage taxonomy (truncation, bitflip, garbage) and the binary
// layout's own hazards: a huge declared count and trailing bytes.
func FuzzDecodeRequest(f *testing.F) {
	encodeGob := func(m *message) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewSource(53))
	req := randomRequest(rng, testSystem())

	hello := encodeGob(&message{Type: msgHello, Proto: ProtocolVersion})
	welcome := encodeGob(&message{Type: msgWelcome, Proto: ProtocolVersion, ModelVersion: 3, Window: 6,
		Resources: []string{"node", "bb"}, Capacities: []int{12, 8}})
	decide := appendMessage(nil, &message{Type: msgDecide, ID: 17, Req: req})
	decision := appendMessage(nil, &message{Type: msgDecision, ID: 17, Pick: 2, ModelVersion: 3})
	swap := appendMessage(nil, &message{Type: msgSwap, ID: 18, Weights: []byte{1, 2, 3, 4}})
	rejected := appendMessage(nil, &message{Type: msgDecision, ID: 19, Pick: -1, Err: "serve: nope"})
	swapped := appendMessage(nil, &message{Type: msgSwapped, ID: 18, ModelVersion: 4, Err: "serve: bad weights"})

	f.Add([]byte(nil))
	f.Add(hello)
	f.Add(welcome)
	f.Add(decide)
	f.Add(decision)
	f.Add(swap)
	f.Add(rejected)
	f.Add(decide[:len(decide)/2])
	bitflip := append([]byte(nil), decide...)
	bitflip[len(bitflip)/3] ^= 0x04
	f.Add(bitflip)
	f.Add([]byte("MRSCH SERVE, NEITHER GOB NOR BINARY"))
	f.Add(swapped)
	f.Add(decision[:len(decision)-1])
	f.Add(append(append([]byte(nil), decision...), 0))
	f.Add(encodeGob(&message{Type: msgDecide, ID: 17, Req: req}))
	huge := binary.AppendUvarint([]byte{byte(msgDecide), 1, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<40)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, payload []byte) {
		if m, err := decodeHandshake(payload); err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("handshake decode failure %v does not wrap ErrCorruptFrame", err)
			}
		} else {
			re, err := decodeHandshake(encodeGob(m))
			if err != nil {
				t.Fatalf("re-decoding a decoded handshake: %v", err)
			}
			if re.Type != m.Type || re.Proto != m.Proto || re.Err != m.Err || re.ModelVersion != m.ModelVersion {
				t.Fatalf("handshake round trip changed the message: %+v -> %+v", m, re)
			}
		}

		m, err := decodeMessage(payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("decode failure %v does not wrap ErrCorruptFrame", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
		// Whatever decoded must survive a round trip bit for bit.
		re, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Fatalf("re-decoding a decoded message: %v", err)
		}
		if !sameMessage(m, re) {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, re)
		}
	})
}
