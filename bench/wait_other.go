//go:build !linux

package main

import "time"

// waitUntil returns at t, as closely as the runtime's timers allow.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }
