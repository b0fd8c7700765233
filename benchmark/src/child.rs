//! Runs the program under test as a child process and measures it from
//! outside: wall time from spawn to exit, and the child's peak resident set.
//! Also confines the benchmark to one CPU.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and sets CPU affinity the way 64-bit Linux does");

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, and the one it confines itself to.
///
/// On a small VM the second vCPU comes and goes with the host's load: the
/// same two-thread solve ran in 100 ms for minutes, then in 170 ms for
/// minutes. One CPU is what such a machine gives reproducibly, so the
/// benchmark measures there; children and threads inherit the confinement.
pub struct Pin {
    allowed: CpuSet,
    one: CpuSet,
    pub cpu: usize,
}

impl Pin {
    /// Confine the calling thread, and every thread and child started after
    /// it, to the highest-numbered CPU it may run on (interrupts tend to land
    /// on the lowest).
    pub fn to_one_cpu() -> Result<Pin, String> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("no CPU is allowed")?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        let pin = Pin { allowed, one, cpu };
        set_affinity(&pin.one)?;
        Ok(pin)
    }

    /// How many CPUs the process started with.
    pub fn allowed_cpus(&self) -> usize {
        self.allowed.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Run `f` on all the CPUs the process started with, then confine again:
    /// for the one probe that measures parallel speed-up.
    pub fn released<R>(&self, f: impl FnOnce() -> R) -> Result<R, String> {
        set_affinity(&self.allowed)?;
        let r = f();
        set_affinity(&self.one)?;
        Ok(r)
    }
}

fn set_affinity(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the size passed; the call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// What one finished child looked like from outside.
pub struct Exit {
    /// Spawn to exit.
    pub wall_s: f64,
    /// The last `VmHWM` the child showed, at most [`HWM_EVERY`] polls before
    /// it exited; `None` if it was gone before the first look.
    pub peak_rss_mb: Option<f64>,
    /// Exited by itself with code 0 (not killed, not timed out).
    pub ok: bool,
    pub stdout: String,
}

/// How often the single-threaded load generator looks for the child's exit;
/// it bounds the error of `wall_s` from above. The generator shares the one
/// CPU with the child, so each look costs the child a few microseconds.
const POLL: Duration = Duration::from_millis(1);
/// Every how many polls the child's peak resident set is read. A program's
/// peak comes while it loads or solves, not in its last milliseconds.
const HWM_EVERY: u32 = 8;

/// Run `cmd` to completion, killing it after `timeout`. Standard output goes
/// to `stdout_path` (a file, so a chatty child can never block on a pipe) and
/// is read back once the child is gone.
///
/// The peak resident set is sampled from `/proc/<pid>/status` while the child
/// runs. `wait4`'s `ru_maxrss` would be exact but is useless here: Linux
/// starts a child's high-water mark at that of the process that spawned it,
/// and this process, holding inputs and oracles, is the bigger of the two.
pub fn run(cmd: &mut Command, stdout_path: &Path, timeout: Duration) -> Result<Exit, String> {
    let out =
        File::create(stdout_path).map_err(|e| format!("create {}: {e}", stdout_path.display()))?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::inherit());
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let mut proc_status = File::open(format!("/proc/{}/status", child.id())).ok();
    let (mut peak_kb, mut polls, mut timed_out) = (None, 0u32, false);
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            break status;
        }
        if t0.elapsed() >= timeout {
            timed_out = true;
            child.kill().map_err(|e| format!("kill child: {e}"))?;
            break child
                .wait()
                .map_err(|e| format!("wait for killed child: {e}"))?;
        }
        if polls % HWM_EVERY == 0 {
            peak_kb = proc_status.as_mut().and_then(vm_hwm_kb).or(peak_kb);
        }
        polls += 1;
        std::thread::sleep(POLL);
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = std::fs::read_to_string(stdout_path).unwrap_or_default();
    Ok(Exit {
        wall_s,
        peak_rss_mb: peak_kb.map(|kb| kb as f64 / 1024.0),
        ok: !timed_out && status.success(),
        stdout,
    })
}

/// The `VmHWM` line of an open `/proc/<pid>/status`, re-read from the start;
/// `None` once the process is a zombie and has no memory to report.
fn vm_hwm_kb(status: &mut File) -> Option<u64> {
    let mut text = String::new();
    status.seek(SeekFrom::Start(0)).ok()?;
    status.read_to_string(&mut text).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("child-test-{}-{name}.txt", std::process::id()))
    }

    #[test]
    fn reports_exit_code_output_wall_time_and_a_plausible_peak_rss() {
        let path = scratch("ok");
        let exit = run(
            Command::new("sh").args(["-c", "echo hello; sleep 0.05"]),
            &path,
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(exit.ok);
        assert_eq!(exit.stdout, "hello\n");
        assert!(exit.wall_s >= 0.05 && exit.wall_s < 5.0, "{}", exit.wall_s);
        let peak = exit
            .peak_rss_mb
            .expect("a child that sleeps 50 ms is seen alive");
        // the test process itself is far bigger than a shell
        assert!(peak > 0.1 && peak < 16.0, "the shell's own peak: {peak}");
        let exit = run(
            Command::new("sh").args(["-c", "exit 3"]),
            &path,
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(!exit.ok);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_child_past_its_timeout_is_killed_and_counted_as_failed() {
        let path = scratch("timeout");
        let exit = run(
            Command::new("sleep").arg("30"),
            &path,
            Duration::from_millis(100),
        )
        .unwrap();
        assert!(!exit.ok);
        assert!(exit.wall_s < 5.0, "{}", exit.wall_s);
        std::fs::remove_file(&path).ok();
    }
}
