//go:build !linux && !darwin

package main

// isTTY reports false: without a terminal ioctl to ask, the plain log
// lines are the safe default.
func isTTY(fd uintptr) bool { return false }
