package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRestartResilience is the chaos test for the durable daemon: it
// builds the real hmcd binary, SIGKILLs it mid-exploration — no graceful
// drain, no deferred flushes — restarts it on the same journal directory,
// and asserts the job completes from its last checkpoint instead of being
// lost or started over.
func TestRestartResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "hmcd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	journal := filepath.Join(dir, "journal")

	daemon, addr := startDaemon(t, bin, journal)

	// A store-only program with 11550 sc executions: several seconds of
	// exploration, checkpointed every 100 executions.
	submit := `{"model": "sc", "source": "name many-writes\nT0: W x 1 ; W x 2 ; W x 3 ; W x 4\nT1: W x 11 ; W x 12 ; W x 13 ; W x 14\nT2: W x 21 ; W x 22 ; W x 23\nexists x=4\n"}`
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		t.Fatalf("submit response %s: %v", body, err)
	}

	// Wait for checkpoints to reach the journal, then SIGKILL.
	waitMetric(t, addr, "hmcd_journal_checkpoints_total", 2)
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait() //nolint:errcheck // killed: the error is the point

	// Restart on the same journal; readiness gates on replay.
	daemon2, addr2 := startDaemon(t, bin, journal)
	defer func() {
		daemon2.Process.Signal(syscall.SIGKILL) //nolint:errcheck
		daemon2.Wait()                          //nolint:errcheck
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr2 + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The killed job must reappear under its old id, finish, and be
	// marked resumed — completion from the checkpoint, not from scratch.
	var done struct {
		State   string `json:"state"`
		Resumed bool   `json:"resumed"`
		Error   string `json:"error"`
		Result  *struct {
			Executions int  `json:"executions"`
			Truncated  bool `json:"truncated"`
			Exhaustive bool `json:"exhaustive"`
		} `json:"result"`
	}
	for {
		resp, err := http.Get("http://" + addr2 + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d body %s", job.ID, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &done); err != nil {
			t.Fatalf("poll response %s: %v", body, err)
		}
		if done.State == "done" || done.State == "failed" || done.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished; last state %s", done.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if done.State != "done" || !done.Resumed {
		t.Fatalf("replayed job: state=%s resumed=%v err=%q, want done and resumed", done.State, done.Resumed, done.Error)
	}
	if done.Result == nil || !done.Result.Exhaustive || done.Result.Executions != 11550 {
		t.Fatalf("replayed result %+v, want exhaustive with 11550 executions", done.Result)
	}
	if saved := readMetric(t, addr2, "hmcd_resume_saved_execs_total"); saved < 100 {
		t.Fatalf("hmcd_resume_saved_execs_total = %d, want >= 100 (resume started from a checkpoint)", saved)
	}
}

// startDaemon launches bin with the given journal directory on an
// ephemeral port and returns the process and its resolved address.
func startDaemon(t *testing.T, bin, journal string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-journal", journal,
		"-checkpoint-every", "100",
		"-crash-dir", filepath.Join(filepath.Dir(journal), "crashes"),
		"-timeout", "0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first line reports the bound address:
	//   hmcd: listening on 127.0.0.1:PORT (...)
	sc := bufio.NewScanner(stdout)
	listenRE := regexp.MustCompile(`listening on (\S+)`)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
			// Keep draining so the daemon never blocks on a full pipe.
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatal("daemon never reported its address")
		return nil, ""
	}
}

// waitMetric polls /metrics until counter name reaches at least want.
func waitMetric(t *testing.T, addr, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if readMetric(t, addr, name) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readMetric scrapes one counter value from /metrics.
func readMetric(t *testing.T, addr, name string) int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0 // daemon mid-restart; caller keeps polling
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
		}
		return v
	}
	return 0
}
