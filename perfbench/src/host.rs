//! What the benchmark does about the host it runs on.
//!
//! On a small shared VM the same code runs faster or slower by up to a
//! third for stretches of seconds to minutes, as neighbours load the
//! physical cores; that swamps the changes the benchmark is meant to
//! show. Two things keep it out of the figures:
//!
//! - [`pin_to_current_cpu`]: every workload runs on the one CPU it starts
//!   on, so the probe below times the very core the workload uses, and
//!   `ctl_fed`'s hand-offs between client and daemon threads stay on
//!   that core instead of waking an idle vCPU, which the hypervisor may
//!   be slow to schedule.
//! - [`one_malloc_arena`]: with every thread on one CPU, glibc's
//!   per-thread malloc arenas buy no parallelism, but which arena a
//!   thread lands in, and what each arena keeps, varied `ctl_fed`'s peak
//!   resident set by 0.07 of its median between runs. One arena keeps
//!   it steady.
//! - [`HostProbe`]: a fixed piece of work that calls no FARM code, timed
//!   at regular points of the measured window. The end-to-end timings
//!   are scaled by how much slower or faster than [`REFERENCE_MS`] it
//!   ran, so they read as at one reference host speed. A change to the
//!   program moves them in full; a change in host speed, which moves the
//!   probe as well, mostly cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's length at the reference host speed, ms. Scaled timings
/// equal wall timings on a host where the probe takes exactly this.
pub const REFERENCE_MS: f64 = 1.0;

/// Words of the probe's table (512 KiB): cache-resident, like the
/// workloads' hot data, and small beside their peak resident set.
const TABLE_WORDS: usize = 1 << 16;
/// Length of the probe's instruction stream, and its number of map keys.
const CODE_LEN: usize = 4096;
/// Passes over the instruction stream, and dependent loads per key.
const ROUNDS: usize = 8;

/// The fixed piece of work. Its three parts stand for what the
/// workloads do most: a dispatch loop over opcodes (the Almanac
/// interpreter), hash-map inserts and lookups (soil, netsim flows and
/// placement state) and dependent loads through a table (instance and
/// fabric walks).
pub struct HostProbe {
    table: Vec<u64>,
    code: Vec<u8>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let table: Vec<u64> = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let code = table[..CODE_LEN].iter().map(|v| (v % 6) as u8).collect();
        HostProbe { table, code }
    }

    /// Runs the work once; returns its wall time, ms.
    pub fn run(&self) -> f64 {
        let started = Instant::now();
        let mut acc: u64 = 1;
        let mut stack = [0u64; 8];
        for _ in 0..ROUNDS {
            for (pc, op) in self.code.iter().enumerate() {
                match op {
                    0 => acc = acc.wrapping_add(pc as u64),
                    1 => acc = acc.rotate_left(7) ^ 0x55,
                    2 => stack[pc & 7] = acc,
                    3 => acc = acc.wrapping_mul(stack[(pc + 3) & 7] | 1),
                    4 if acc & 1 == 0 => acc >>= 1,
                    4 => acc = acc.wrapping_mul(3).wrapping_add(1),
                    _ => acc ^= stack[pc & 7],
                }
            }
        }
        let keys = &self.table[..CODE_LEN];
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(keys.len());
        for (i, k) in keys.iter().enumerate() {
            map.insert(*k, i as u64);
        }
        let mut sum = 0u64;
        for k in &self.table[CODE_LEN / 2..CODE_LEN / 2 + CODE_LEN] {
            sum = sum.wrapping_add(map.get(k).copied().unwrap_or(1));
        }
        let mut j = acc as usize % TABLE_WORDS;
        for _ in 0..ROUNDS * CODE_LEN {
            j = self.table[j] as usize % TABLE_WORDS;
            sum = sum.wrapping_add(j as u64);
        }
        black_box((acc, sum));
        started.elapsed().as_secs_f64() * 1e3
    }
}

// The libc symbols directly: std links libc on Linux and the workspace
// has no wrapper crate, the idiom farmd uses for `signal`.
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter of `mallopt`.
const M_ARENA_MAX: i32 = -8;

/// Bits in the CPU mask handed to the kernel (glibc's `cpu_set_t`).
const MASK_WORDS: usize = 1024 / 64;

/// Restricts this thread, and every thread it starts afterwards, to the
/// CPU it runs on now; returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= MASK_WORDS * 64 {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes, which is the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Makes every thread allocate from glibc's main malloc arena. Call it
/// before any thread is started.
pub fn one_malloc_arena() -> Result<(), String> {
    // SAFETY: mallopt takes two integers and only changes allocator
    // settings; no allocation is in flight in another thread yet.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    if ok == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX) refused".into())
    }
}
