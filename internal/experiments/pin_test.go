package experiments

import (
	"os"
	"strings"
	"testing"
)

// allPinFile holds what `cmd/experiments -exp all` prints: every
// experiment's text, each followed by the blank line fmt.Println adds.
const allPinFile = "testdata/all.txt"

// TestAllOutputPinned compares the suite's shared All() run byte for byte
// with the recorded output, so "every number unchanged" is a tier-1 fact
// and not a by-hand diff. It costs no extra wall time: it reads the run
// every other test of this package shares. After an *intended* change of a
// printed number, delete the file and run the test once to re-record.
func TestAllOutputPinned(t *testing.T) {
	var b strings.Builder
	for _, r := range allOnce(t) {
		b.WriteString(r.Text)
		b.WriteByte('\n')
	}
	got := b.String()
	raw, err := os.ReadFile(allPinFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allPinFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded %d bytes; review and commit it", allPinFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: first divergence at line %d (%d bytes now, %d recorded):\n got  %s\n want %s",
					allPinFile, i+1, len(got), len(want), g, w)
			}
		}
	}
}
