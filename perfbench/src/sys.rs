//! The few Linux calls the harness needs, declared directly against the
//! C library that std already links (as `smlsc-mmap` does), so the
//! benchmark adds no dependency.

use std::io;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

mod ffi {
    use core::ffi::{c_int, c_long};

    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: c_long,
        pub tv_usec: c_long,
    }

    /// `struct rusage`: two timevals, then fourteen longs of which the
    /// first is `ru_maxrss` (KiB on Linux).
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub rest: [c_long; 14],
    }

    pub const PR_SET_CHILD_SUBREAPER: c_int = 36;
    pub const SC_CLK_TCK: c_int = 2;
    pub const SIGKILL: c_int = 9;
    pub const WNOHANG: c_int = 1;

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
    }
}

/// How one child process ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// The exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, bytes.
    pub max_rss: u64,
}

fn tv(t: &ffi::Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

fn wait4(pid: u32, options: i32) -> io::Result<Option<Exit>> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0;
    let mut ru = ffi::Rusage {
        ru_utime: ffi::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: ffi::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    loop {
        // SAFETY: `status` and `ru` are valid, writable, and live for the
        // whole call; `wait4` writes only within them.
        let r = unsafe { ffi::wait4(pid, &mut status, options, &mut ru) };
        if r == pid {
            break;
        }
        if r == 0 {
            return Ok(None);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = ((status & 0x7f) == 0).then_some((status >> 8) & 0xff);
    Ok(Some(Exit {
        code,
        cpu: tv(&ru.ru_utime) + tv(&ru.ru_stime),
        max_rss: (ru.rest[0].max(0) as u64) * 1024,
    }))
}

/// Reaps `child` with `wait4`, returning its exit and resource use.
/// `Child::wait` must not be called on it afterwards.
pub fn wait_child(child: &Child) -> io::Result<Exit> {
    wait4(child.id(), 0)?.ok_or_else(|| io::Error::other("wait4 returned no child"))
}

/// Spawns `cmd`, waits for it, and returns its exit plus wall time from
/// spawn to reaping, with stdout captured.
pub fn run_timed(cmd: &mut Command) -> io::Result<(Exit, Duration, String)> {
    use std::io::Read;
    cmd.stdout(std::process::Stdio::piped());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let exit = wait_child(&child)?;
    let wall = t0.elapsed();
    read?;
    Ok((exit, wall, out))
}

/// Makes this process the reaper of its orphaned descendants, so a
/// daemon that `smlsc daemon start` detaches is still ours to wait for.
pub fn become_subreaper() -> io::Result<()> {
    // SAFETY: PR_SET_CHILD_SUBREAPER takes one integer argument and
    // touches no memory of ours.
    let r = unsafe { ffi::prctl(ffi::PR_SET_CHILD_SUBREAPER, 1 as core::ffi::c_ulong) };
    if r == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Waits up to `timeout` for descendant `pid` (reparented to us by
/// [`become_subreaper`]) to exit, then kills and reaps it.
pub fn reap_descendant(pid: u32, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        match wait4(pid, ffi::WNOHANG) {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => break,
            // Not our child (never reparented): fall back to /proc.
            Err(_) if !alive(pid) => return Ok(()),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(e),
        }
    }
    // SAFETY: plain signal delivery to a pid we started; no memory.
    unsafe { ffi::kill(pid as core::ffi::c_int, ffi::SIGKILL) };
    wait4(pid, 0).map(|_| ())
}

/// Whether `pid` is a live (not zombie) process.
pub fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit_once(')')
                .map(|(_, r)| r.trim_start().starts_with('Z'))
        })
        .is_some_and(|zombie| !zombie)
}

/// User plus system CPU time `pid` has used so far, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks).
pub fn proc_cpu(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let (_, rest) = stat
        .rsplit_once(')')
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    let ticks = tick(11)? + tick(12)?;
    // SAFETY: sysconf reads a constant; no memory of ours.
    let hz = unsafe { ffi::sysconf(ffi::SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_micros(ticks * 1_000_000 / hz))
}

/// Peak resident set size of live process `pid` (`VmHWM` in
/// `/proc/<pid>/status`), bytes.
pub fn proc_peak_rss(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
