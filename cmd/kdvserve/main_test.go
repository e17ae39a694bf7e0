package main

import (
	"os"
	"syscall"
	"testing"
	"time"
)

// TestRunSIGTERMExitsCleanly boots the real server loop and delivers a
// SIGTERM to the process: run() must drain and return exit code 0.
func TestRunSIGTERMExitsCleanly(t *testing.T) {
	os.Args = []string{"kdvserve", "-addr", "127.0.0.1:0", "-n", "1000", "-shutdown-timeout", "5s"}
	done := make(chan int, 1)
	go func() { done <- run() }()
	// Give the loop time to install its signal handler and listener before
	// the signal fires.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run() exited %d after SIGTERM, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("kdvserve did not exit after SIGTERM")
	}
}

// TestRunRejectsBadTileSize: a -tile-size that no pyramid accepts is the
// operator's error, so kdvserve exits 2 at startup instead of answering
// every /tiles request 400.
func TestRunRejectsBadTileSize(t *testing.T) {
	for _, size := range []string{"100", "32", "2048"} {
		os.Args = []string{"kdvserve", "-addr", "127.0.0.1:0", "-n", "1000", "-tile-size", size}
		done := make(chan int, 1)
		go func() { done <- run() }()
		select {
		case code := <-done:
			if code != 2 {
				t.Fatalf("-tile-size %s: run() exited %d, want 2", size, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("-tile-size %s: kdvserve started instead of exiting", size)
		}
	}
}
