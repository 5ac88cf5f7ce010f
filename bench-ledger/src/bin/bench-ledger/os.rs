//! The three Linux calls the standard library does not wrap: pinning a
//! thread to one CPU, and stopping, continuing or killing a process
//! group. Declared by hand, as the repository's binaries do, so the
//! benchmark needs no dependency.

#![allow(unsafe_code)]

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// Signals sent to the measured process group.
#[derive(Copy, Clone, Debug)]
pub enum Signal {
    /// `SIGSTOP`: the group stops wherever it is.
    Stop,
    /// `SIGCONT`: the group continues.
    Cont,
    /// `SIGKILL`: the group dies.
    Kill,
}

/// Sends `sig` to every process of the group `pgid`. A group that has
/// already exited is not an error.
pub fn signal_group(pgid: u32, sig: Signal) {
    let number = match sig {
        Signal::Stop => 19,
        Signal::Cont => 18,
        Signal::Kill => 9,
    };
    let Ok(pgid) = i32::try_from(pgid) else { return };
    // SAFETY: kill(2) takes two integers and touches no memory of ours;
    // a negative pid names a process group, and the only failure is an
    // error return.
    unsafe {
        kill(-pgid, number);
    }
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Pins the calling thread, and every process it spawns from now on,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    let Some(word) = set.get_mut(cpu / 64) else { return false };
    *word |= 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed, only
    // read by the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}
