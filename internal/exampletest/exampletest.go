// Package exampletest runs an example program's main in-process with
// standard output captured, so each example's smoke test can pin what
// the program prints.
package exampletest

import (
	"os"
	"strings"
	"testing"
)

// PinLastLine runs main and fails t unless the last line it printed to
// standard output is want. An example that fails calls log.Fatal, which
// ends the test binary with the example's own message.
func PinLastLine(t *testing.T, main func(), want string) {
	t.Helper()
	if got := lastLine(t, main); got != want {
		t.Fatalf("last output line\n got: %q\nwant: %q", got, want)
	}
}

func lastLine(t *testing.T, main func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = saved }()
		main()
	}()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimRight(string(out), "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}
