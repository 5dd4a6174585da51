//! Minimal FFI to the kernel readiness syscalls: `epoll` (Linux) and
//! `poll(2)` (any Unix), plus the wake primitives they need (`eventfd`
//! on Linux, a nonblocking self-pipe elsewhere). This is the only
//! module in the crate allowed to use `unsafe`; everything above it
//! sees safe wrappers that own their file descriptors (RAII close) and
//! translate errors through `io::Error::last_os_error()` — which reads
//! `errno`, so no errno FFI is needed.
//!
//! Declarations are hand-written against the stable Linux/POSIX ABI
//! instead of pulling in the `libc` crate: the workspace is std-only by
//! charter, and the surface is ten calls. Every `unsafe` block below is
//! one foreign call; the invariants they lean on (fds owned by
//! [`OwnedFd`], pointer/length pairs taken from live slices) are set up
//! by the safe code in this module, whose fd fields are private.

#![allow(unsafe_code)]

use std::io;

use core::ffi::{c_int, c_uint, c_ulong, c_void};

/// A raw file descriptor, aliased locally so the portable layers above
/// compile on non-Unix targets (where the fd-based pollers are compiled
/// out and the alias is inert).
pub type RawFd = c_int;

// ---------------------------------------------------------------------
// poll(2) — any Unix.
// ---------------------------------------------------------------------

/// `struct pollfd` from `<poll.h>`: the layout is fixed by POSIX.
#[cfg(unix)]
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

#[cfg(unix)]
pub const POLLIN: i16 = 0x001;
#[cfg(unix)]
pub const POLLOUT: i16 = 0x004;
#[cfg(unix)]
pub const POLLERR: i16 = 0x008;
#[cfg(unix)]
pub const POLLHUP: i16 = 0x010;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    // Variadic in C. Declaring the third argument as a fixed parameter
    // is wrong on ABIs that pass variadic arguments differently from
    // named ones (aarch64 Apple passes them on the stack): the flag
    // would never reach the kernel.
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

#[cfg(unix)]
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0x800;
// The BSD family (macOS included) uses 0x4; this crate only needs the
// flag on the self-pipe, so the two-value split covers every Unix the
// workspace builds on.
#[cfg(all(unix, not(target_os = "linux")))]
const O_NONBLOCK: c_int = 0x4;

/// `poll(2)` over a `pollfd` slice. Returns the number of entries with
/// non-zero `revents`. `EINTR` is retried internally.
#[cfg(unix)]
pub fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: the pointer/length pair comes from one live, exclusively
        // borrowed slice of `repr(C)` `PollFd`s, which the kernel reads
        // and writes (`revents`) only within that length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A nonblocking self-pipe: writing one byte to `writer` wakes a
/// `poll(2)` watching `reader`. Both ends close on drop.
#[cfg(unix)]
#[derive(Debug)]
pub struct SelfPipe {
    reader: OwnedFd,
    writer: OwnedFd,
}

#[cfg(unix)]
impl SelfPipe {
    pub fn new() -> io::Result<Self> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `pipe` writes exactly two `c_int`s; `fds` is a live
        // array of exactly two.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let (reader, writer) = (OwnedFd(fds[0]), OwnedFd(fds[1]));
        for fd in [reader.0, writer.0] {
            // SAFETY: `fd` is an open descriptor owned by the `OwnedFd`s
            // just built; `F_SETFL` takes one `c_int` argument, which
            // is what is passed.
            if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(SelfPipe { reader, writer })
    }

    pub fn reader_fd(&self) -> RawFd {
        self.reader.0
    }

    /// Wake the poller. A full pipe means a wake is already pending —
    /// that is success, not an error, so `EAGAIN` is swallowed.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the fd is open for as long as `self.writer` lives, and
        // the buffer is one live byte with a matching count of 1.
        unsafe { write(self.writer.0, (&byte as *const u8).cast(), 1) };
    }

    /// Drain every pending wake byte (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the fd is open for as long as `self.reader` lives,
            // and the pointer/length pair is the live local `buf`.
            let n = unsafe { read(self.reader.0, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

/// RAII file descriptor.
#[cfg(unix)]
#[derive(Debug)]
pub struct OwnedFd(RawFd);

#[cfg(unix)]
impl OwnedFd {
    pub fn raw(&self) -> RawFd {
        self.0
    }
}

#[cfg(unix)]
impl Drop for OwnedFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is a descriptor this value owns exclusively
        // (constructed only from a fresh `pipe`/`epoll_create1`/`eventfd`
        // result, never cloned), so it is open and closed exactly once.
        unsafe { close(self.0) };
    }
}

// ---------------------------------------------------------------------
// epoll + eventfd — Linux.
// ---------------------------------------------------------------------

/// `struct epoll_event`. Packed on x86/x86_64 (the kernel ABI packs it
/// there so 32- and 64-bit layouts agree); naturally aligned everywhere
/// else.
#[cfg(target_os = "linux")]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
pub const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
pub const EPOLLOUT: u32 = 0x004;
// EPOLLERR / EPOLLHUP need no constants: epoll reports both
// unconditionally, and the reactor treats any event as "go service the
// socket" (the nonblocking read surfaces the actual condition).

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: c_int = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0x80000;
#[cfg(target_os = "linux")]
const EFD_CLOEXEC: c_int = 0x80000;
#[cfg(target_os = "linux")]
const EFD_NONBLOCK: c_int = 0x800;

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// An owned epoll instance.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Epoll(OwnedFd);

#[cfg(target_os = "linux")]
impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes no pointers; a negative return is handled below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll(OwnedFd(fd)))
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        let event_ptr =
            if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { (&mut event) as *mut _ };
        // SAFETY: the epoll fd is owned by `self.0`; `event_ptr` is null
        // (allowed for `EPOLL_CTL_DEL`) or points at the live local
        // `event`, which the kernel copies before returning. A stale or
        // foreign `fd` argument is an `EBADF`/`ENOENT` error, not UB.
        if unsafe { epoll_ctl(self.0.raw(), op, fd, event_ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for events; `EINTR` retried internally with the same
    /// timeout (the reactor's safety-net timeout makes exactness moot).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the epoll fd is owned by `self.0`; the pointer and
            // `maxevents` come from one live, exclusively borrowed slice,
            // so the kernel writes at most `events.len()` entries.
            let rc = unsafe {
                epoll_wait(self.0.raw(), events.as_mut_ptr(), events.len() as c_int, timeout_ms)
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// An owned nonblocking eventfd: the epoll poller's wake channel. A
/// `wake()` is one 8-byte write; the poller drains the counter with one
/// read per wakeup. Shared via `Arc` with every installed waker, so the
/// fd cannot be closed (and its number reused) while a foreign thread
/// still holds a waker — the classic use-after-close bug this RAII
/// sharing exists to prevent.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EventFd(OwnedFd);

#[cfg(target_os = "linux")]
impl EventFd {
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes no pointers; a negative return is handled below.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd(OwnedFd(fd)))
    }

    pub fn raw(&self) -> RawFd {
        self.0.raw()
    }

    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: the fd is owned by `self.0`; the buffer is the live
        // 8-byte array an eventfd write requires, with a count of 8.
        unsafe { write(self.0.raw(), one.as_ptr().cast(), 8) };
    }

    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: the fd is owned by `self.0`; the buffer is a live
        // 8-byte array and the count is 8.
        unsafe { read(self.0.raw(), buf.as_mut_ptr().cast(), 8) };
    }
}
