package main

import (
	"syscall"
	"unsafe"
)

// isTTY reports whether fd is a terminal: TCGETS, the ioctl behind
// tcgetattr(3), succeeds only on a tty and fails with ENOTTY on files,
// pipes, sockets and other character devices such as /dev/null.
func isTTY(fd uintptr) bool {
	var t syscall.Termios
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, fd, syscall.TCGETS, uintptr(unsafe.Pointer(&t)))
	return errno == 0
}
