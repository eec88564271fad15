//! Child processes: the `stp` binary is only ever driven from outside,
//! with a scrubbed environment, and nothing started here outlives the
//! harness on any exit path.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its readiness line, to answer
/// one request, or to exit after `SIGTERM`.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);

const READY_PREFIX: &str = "stp serve: listening on ";

/// Sweep workers for the batch children: both cores of the reference
/// box, never more (the harness thread needs no core while it waits).
pub fn sweep_workers() -> usize {
    cores().min(2)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `Command` for the product binary with every `STP_*` variable of
/// the caller's environment removed, so a stray `STP_EXEC` or
/// `STP_SERVE_CACHE` in a developer's shell cannot change what is
/// measured. `STP_SWEEP_WORKERS` is the one knob set explicitly.
pub fn stp_command(stp: &Path, workers: usize) -> Command {
    let mut cmd = Command::new(stp);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("STP_") {
            cmd.env_remove(name);
        }
    }
    cmd.env("STP_SWEEP_WORKERS", workers.to_string());
    cmd.stdin(Stdio::null());
    cmd
}

/// One finished batch child.
pub struct ChildRun {
    pub wall_ns: u64,
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// The child's own peak resident set (`ru_maxrss`), KiB.
    pub peak_rss_kb: u64,
}

mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen
    /// longs.
    #[repr(C)]
    pub struct RUsage {
        pub ru_utime: [i64; 2],
        pub ru_stime: [i64; 2],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    /// A `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub const SIGTERM: i32 = 15;
}

/// While alive, the calling thread — and every child it spawns, which
/// inherits the mask — may run on one core only.
///
/// A serve workload is a closed loop over one connection: client,
/// connection thread and worker never run at the same time, so one core
/// loses nothing. Left to the scheduler, each wake-up is either a
/// context switch (same core) or an interrupt to a halted virtual CPU
/// (other core, some 20 µs), and which one it is flips between runs:
/// the warm p50 reads 8.5 µs or 49 µs on the same binary, a churn miss
/// 1.25 ms or 1.41 ms. Pinned, it is always the first — and the
/// daemon's own 2.5 µs of work is a third of the round trip instead of
/// a twentieth, so a change to it shows.
pub struct OneCore {
    before: sys::CpuSet,
}

impl OneCore {
    pub fn pin() -> Result<OneCore, String> {
        let mut before: sys::CpuSet = [0; 16];
        let size = std::mem::size_of::<sys::CpuSet>();
        // SAFETY: `before` is a live, writable buffer of `size` bytes;
        // pid 0 is the calling thread.
        if unsafe { sys::sched_getaffinity(0, size, &mut before) } != 0 {
            return Err("sched_getaffinity failed".to_string());
        }
        // The highest allowed CPU: the lowest one takes the disk and
        // timer interrupts, which the fsync-heavy churn mix feels.
        let word = before
            .iter()
            .rposition(|&w| w != 0)
            .ok_or("empty CPU set")?;
        let mut one: sys::CpuSet = [0; 16];
        one[word] = 1 << (63 - before[word].leading_zeros());
        // SAFETY: `one` is a live buffer of `size` bytes naming a CPU
        // the thread was already allowed on.
        if unsafe { sys::sched_setaffinity(0, size, &one) } != 0 {
            return Err("sched_setaffinity failed".to_string());
        }
        Ok(OneCore { before })
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        let size = std::mem::size_of::<sys::CpuSet>();
        // SAFETY: restores the mask read by `pin`, from a live buffer.
        unsafe { sys::sched_setaffinity(0, size, &self.before) };
    }
}

/// Run a batch child to completion, timing spawn → exit. Its output
/// goes to files in `scratch` (a report of a few hundred findings does
/// not fit a pipe buffer) and the child is reaped with `wait4`, which
/// also hands back that one child's peak RSS.
pub fn run_child(mut cmd: Command, scratch: &Path) -> Result<ChildRun, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let create = |path: &Path| {
        File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
    };
    cmd.stdout(create(&out_path)?).stderr(create(&err_path)?);
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot run {:?}: {e}", cmd.get_program()))?;
    let mut status = 0i32;
    let mut usage = sys::RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live and writable, `usage` has
    // the 144-byte layout 64-bit Linux defines, and the pid is our own
    // child, not yet reaped (std reaps only on an explicit `wait`,
    // which is never called on this `Child`).
    let reaped = unsafe { sys::wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    if reaped != child.id() as i32 {
        return Err(format!("wait4 on {:?} failed", cmd.get_program()));
    }
    let read = |path: &Path| std::fs::read_to_string(path).unwrap_or_default();
    Ok(ChildRun {
        wall_ns,
        // WIFEXITED / WEXITSTATUS; a signal death has no exit code.
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout: read(&out_path),
        stderr: read(&err_path),
        peak_rss_kb: usage.ru_maxrss.max(0) as u64,
    })
}

/// A running `stp serve` child. Dropping it kills the process, so an
/// early return or a panic in the harness leaves nothing behind.
pub struct Daemon {
    child: Option<Child>,
    stdout_reader: Option<JoinHandle<()>>,
    addr: String,
}

/// Options of one daemon start.
pub struct DaemonOpts<'a> {
    pub stp: &'a Path,
    pub cache: &'a Path,
    pub cache_cap: Option<usize>,
    /// File the daemon's stderr is appended to (kept for diagnosis until
    /// the workload's temp directory is removed).
    pub log: &'a Path,
}

impl Daemon {
    /// Start `stp serve --addr 127.0.0.1:0 --workers 1 --cache <file>`
    /// and wait for its `listening on` line. One worker, so harness
    /// thread + connection thread + worker stay within two cores.
    pub fn spawn(opts: &DaemonOpts) -> Result<Daemon, String> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(opts.log)
            .map_err(|e| format!("cannot open {}: {e}", opts.log.display()))?;
        let mut cmd = stp_command(opts.stp, 1);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache",
        ])
        .arg(opts.cache);
        if let Some(cap) = opts.cache_cap {
            cmd.args(["--cache-cap", &cap.to_string()]);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::from(log));
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", opts.stp.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            // Keeps draining after the readiness line so the daemon can
            // never block on a full pipe; ends at the child's EOF.
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix(READY_PREFIX) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            stdout_reader: Some(stdout_reader),
            addr: String::new(),
        };
        daemon.addr = rx.recv_timeout(DAEMON_TIMEOUT).map_err(|_| {
            format!(
                "daemon never printed {READY_PREFIX:?} (see {})",
                opts.log.display()
            )
        })?;
        Ok(daemon)
    }

    /// Open the one connection the workload drives.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(DAEMON_TIMEOUT)))
            .map_err(|e| format!("socket setup: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            out: Vec::with_capacity(256),
        })
    }

    /// True while the process has not exited.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.as_mut().map(Child::try_wait), Some(Ok(None)))
    }

    /// `SIGTERM`, then wait for the clean exit (drained pool, flushed
    /// cache). Anything but exit status 0 is an error.
    pub fn terminate(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon not yet reaped");
        // SAFETY: plain syscall; the pid is our own un-reaped child, so
        // it cannot have been recycled for another process.
        unsafe { sys::kill(child.id() as i32, sys::SIGTERM) };
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon ignored SIGTERM".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
        if status.code() == Some(0) {
            Ok(())
        } else {
            Err(format!("daemon exited with {status} after SIGTERM"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// The planner client's connection: newline-delimited JSON, one request
/// in flight (closed loop).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Send one line and read the one reply line into `reply` (cleared
    /// first). Returns the round-trip time in ns. A closed connection is
    /// an error.
    pub fn round_trip(&mut self, line: &str, reply: &mut String) -> Result<u64, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        reply.clear();
        let t0 = Instant::now();
        // One write per request: with TCP_NODELAY two writes would be
        // two segments.
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send failed: {e}"))?;
        let n = self
            .reader
            .read_line(reply)
            .map_err(|e| format!("no reply: {e}"))?;
        let ns = t0.elapsed().as_nanos() as u64;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok(ns)
    }
}

/// A per-workload scratch directory inside the checkout, removed on
/// drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(root: &Path, tag: &str) -> Result<TempDir, String> {
        let path = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Filesystem type behind `path`, from `/proc/self/mountinfo` (longest
/// mount-point prefix). fsync cost depends on it, so the persisted-cache
/// numbers are only comparable on one machine.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fs = tail.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
