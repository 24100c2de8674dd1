//! Keeps the CPUs awake while a run measures.
//!
//! The program hands every RPC across four or five threads, and a closed
//! loop leaves the other CPUs idle between hand-offs. In a VM an idle
//! vCPU halts, and waking it costs whatever the host's halt-polling is
//! doing at that moment: on the reference box the same `lan_smallfile`
//! binary completes 3.5 k or 17 k calls per second, flipping between the
//! two for seconds at a time inside one run. So, for as long as it
//! measures, the benchmark runs one helper process per CPU that spins in
//! the `SCHED_IDLE` class — the equivalent of booting with `idle=poll`.
//! A thread that wakes preempts the helper at once; but the vCPU never
//! halts, so a hand-off costs a cross-CPU wake-up and nothing of the
//! hypervisor's. The helpers are processes, not threads, so the CPU
//! time and memory of the measuring process stay the program's own.

use crate::measure;
use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

/// The helpers of one run; dropping it stops them and waits for each.
pub struct NoHalt(Vec<Child>);

impl NoHalt {
    /// One helper per CPU this process may run on. A helper that cannot
    /// start is reported and left out: the run goes on, only noisier.
    pub fn start() -> NoHalt {
        let mut helpers = Vec::new();
        for &cpu in measure::given_cpus() {
            match helper(cpu) {
                Ok(child) => helpers.push(child),
                Err(e) => eprintln!(
                    "warning: no helper keeps CPU {cpu} awake ({e}); wall-clock metrics will be noisier"
                ),
            }
        }
        NoHalt(helpers)
    }
}

fn helper(cpu: usize) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["spin", &cpu.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    // The helper writes one byte once it spins at idle priority on its CPU.
    let mut ready = [0u8; 1];
    let started = child
        .stdout
        .take()
        .is_some_and(|mut out| out.read_exact(&mut ready).is_ok());
    if started {
        Ok(child)
    } else {
        let _ = child.kill();
        let _ = child.wait();
        Err("it could not enter SCHED_IDLE on that CPU".into())
    }
}

impl Drop for NoHalt {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The helper process (`sgfs-benchmark spin <cpu>`): spin on `cpu` in the
/// `SCHED_IDLE` class until standard input closes — which it also does
/// when the measuring process dies without stopping its helpers.
pub fn spin(cpu: usize) -> i32 {
    if !measure::pin_self_to(cpu) || !measure::set_idle_policy() {
        return 2;
    }
    let mut out = std::io::stdout();
    if out.write_all(b"+").and_then(|()| out.flush()).is_err() {
        return 2;
    }
    // The spinner inherits this thread's CPU and class.
    static PARENT_GONE: AtomicBool = AtomicBool::new(false);
    let spinner = std::thread::spawn(|| {
        while !PARENT_GONE.load(Ordering::Relaxed) {
            for _ in 0..4096 {
                std::hint::spin_loop();
            }
        }
    });
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    PARENT_GONE.store(true, Ordering::Relaxed);
    i32::from(spinner.join().is_err())
}
