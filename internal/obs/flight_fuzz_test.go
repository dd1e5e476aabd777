package obs

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzDecodeFlightBundle feeds arbitrary bytes to the bundle decoder:
// it must never panic, and a bundle it accepts must survive
// decode∘Encode unchanged. The seed is a verify-reject bundle that a
// fixed-seed SEU campaign on a serving node records.
func FuzzDecodeFlightBundle(f *testing.F) {
	seed, err := os.ReadFile("testdata/flight_verify_reject.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeFlightBundle(data)
		if err != nil {
			return
		}
		enc := b.Encode()
		again, err := DecodeFlightBundle(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded bundle: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("bundle changed through encode and decode:\n%#v\n%#v", b, again)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("encoding is not stable:\n%s", enc)
		}
	})
}
