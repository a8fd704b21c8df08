package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDebugServesUntilInterrupted builds the CLI, runs `debug` on an
// ephemeral port over a real directory, fetches two endpoints over
// HTTP, runs a scrub pass through POST /scrub, and interrupts it: the
// command must shut its server down, print "stopping" and exit 0.
func TestDebugServesUntilInterrupted(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the CLI with")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "iamdb")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-db", filepath.Join(tmp, "data"), "-addr", "127.0.0.1:0", "debug")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	// The first line names the address the kernel assigned.
	lines := bufio.NewReader(stdout)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the address line: %v (stderr %q)", err, stderr.String())
	}
	const prefix = "debug server on http://"
	i := strings.Index(first, prefix)
	if i < 0 {
		t.Fatalf("no address in %q", first)
	}
	addr, _, ok := strings.Cut(first[i+len(prefix):], "/")
	if !ok {
		t.Fatalf("no address in %q", first)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	do := func(method, path string) string {
		t.Helper()
		req, err := http.NewRequest(method, "http://"+addr+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: code %d, %v", method, path, resp.StatusCode, err)
		}
		return string(body)
	}
	if body := do("GET", "/metrics"); !strings.Contains(body, "Level |") {
		t.Errorf("/metrics: %q", body)
	}
	var points []json.RawMessage
	if body := do("GET", "/timeline"); json.Unmarshal([]byte(body), &points) != nil {
		t.Errorf("/timeline is not a JSON array: %q", body)
	}
	var scrub struct{ Summary, Err string }
	body := do("POST", "/scrub")
	if err := json.Unmarshal([]byte(body), &scrub); err != nil || scrub.Summary == "" || scrub.Err != "" {
		t.Fatalf("POST /scrub: %q (%v), want a report with no error", body, err)
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// A command that never joins its server hangs here: give it a
	// deadline rather than the test binary's.
	kill := time.AfterFunc(20*time.Second, func() { _ = cmd.Process.Kill() })
	rest, _ := io.ReadAll(lines)
	err = cmd.Wait()
	exited = true
	if !kill.Stop() {
		t.Fatalf("still running 20 s after the interrupt; killed (output %q)", rest)
	}
	if err != nil {
		t.Fatalf("exit after interrupt: %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(string(rest), "stopping") {
		t.Errorf("output after interrupt: %q, want it to say stopping", rest)
	}
}
