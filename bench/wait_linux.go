package main

import (
	"syscall"
	"time"
)

// waitUntil returns at t. The runtime parks an idle thread in epoll_wait,
// whose timeout is whole milliseconds, so time.Sleep(50µs) returns after
// 1.09 ms here and a 1500 rps schedule cannot be kept with it; yielding in
// a loop instead keeps both cores out of the netpoller and is worse.
// nanosleep(2) holds to about 70 µs and burns nothing.
func waitUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps what is left
	}
}
