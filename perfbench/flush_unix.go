//go:build unix

package main

import "syscall"

// flushDisk writes back every dirty page on the machine, so writes left
// by set-up (and by earlier runs) are not paid for by the first fsyncs of
// the measurement.
func flushDisk() { syscall.Sync() }
