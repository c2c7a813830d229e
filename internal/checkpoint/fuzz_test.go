package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCheckpointBody feeds arbitrary bytes to the checkpoint body decoder
// (the part of a file behind its checksummed header): it must never panic,
// and whatever it accepts must re-encode to bytes that decode to the same
// checkpoint and re-encode identically.
func FuzzCheckpointBody(f *testing.F) {
	for _, ck := range []*Checkpoint{sampleCheckpoint(), {Applied: 3}} {
		body := appendBody(nil, ck)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeBody(data)
		if err != nil {
			return
		}
		enc := appendBody(nil, ck)
		again, err := decodeBody(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, ck) {
			t.Fatalf("decode(encode(decode(x))) != decode(x)\n got %#v\nwant %#v", again, ck)
		}
		if !bytes.Equal(appendBody(nil, again), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
