//go:build !unix

package main

// flushDisk is a no-op where the platform offers no sync(2).
func flushDisk() {}
