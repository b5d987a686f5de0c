package journal

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// TestFramesCutWhereWalkStops checks the split a parallel decoder starts
// from against the serial scan: cutting Frames' output at its first
// frame that is not Intact must leave exactly the prefix Walk accepts,
// whatever the tail looks like.
func TestFramesCutWhereWalkStops(t *testing.T) {
	var clean []byte
	for i := 0; i < 5; i++ {
		clean = AppendFrame(clean, []byte(fmt.Sprintf("payload %d", i)))
	}
	third := len(AppendFrame(AppendFrame(nil, []byte("payload 0")), []byte("payload 1")))
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), clean...)) }
	cases := map[string][]byte{
		"clean":         clean,
		"empty":         nil,
		"short tail":    clean[:len(clean)-3],
		"short prefix":  append(append([]byte(nil), clean...), 7, 0),
		"crc flipped":   edit(func(b []byte) []byte { b[third+6] ^= 1; return b }),
		"zero length":   edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[third:], 0); return b }),
		"oversized":     edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[third:], MaxFrame+1); return b }),
		"runs past end": edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[third:], 1<<20); return b }),
	}
	for name, data := range cases {
		want := Walk(data, func([]byte) error { return nil })
		got := 0
		for _, f := range Frames(data) {
			if !f.Intact() {
				break
			}
			got = f.End
		}
		if got != want {
			t.Errorf("%s: frames cut at %d, Walk stops at %d", name, got, want)
		}
	}
}
