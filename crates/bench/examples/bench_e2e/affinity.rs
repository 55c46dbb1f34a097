//! Pins the process to as many CPUs as the workload has threads.
//!
//! On a 2-vCPU virtual machine an unpinned run of `serving` (three
//! threads that hand work to each other over channels) spread 650–1020 ms
//! between runs of the same code and seed, depending on whether the
//! threads happened to share a vCPU; pinned, 642–652 ms. Single-threaded
//! workloads lose their migrations. The standard library has no call for
//! this, so the three libc functions are declared here.

/// Words of a `cpu_set_t`: 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
}

/// Restricts the process to `threads` of the CPUs it may run on, the one
/// it is running on first. Returns the CPUs chosen; empty when the
/// platform has no such call or refuses it, which leaves the run unpinned.
#[cfg(target_os = "linux")]
pub fn pin(threads: usize) -> Vec<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread, from which threads spawned
    // later inherit the mask.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    let is_allowed = |cpu: usize| allowed[cpu / 64] >> (cpu % 64) & 1 == 1;
    // SAFETY: takes no argument and only reads the caller's CPU number.
    let here = unsafe { sched_getcpu() };
    let here = usize::try_from(here)
        .ok()
        .filter(|&cpu| cpu < MASK_WORDS * 64 && is_allowed(cpu));
    let mut chosen: Vec<usize> = here
        .into_iter()
        .chain((0..MASK_WORDS * 64).filter(|&cpu| is_allowed(cpu) && Some(cpu) != here))
        .collect();
    chosen.truncate(threads.max(1));
    chosen.sort_unstable();
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in &chosen {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed and names
    // only CPUs the kernel just reported as allowed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Vec::new();
    }
    chosen
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_threads: usize) -> Vec<usize> {
    Vec::new()
}
