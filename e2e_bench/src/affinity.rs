//! CPU affinity of the benchmark process.
//!
//! Every run pins itself to one CPU before it spawns a thread, so the
//! server, its scheduler and the clients all inherit the pin. On the
//! reference box (2 vCPUs of a shared host) a wake-up that crosses to
//! the other vCPU costs about 100 us and as much again when the host is
//! busy: unpinned, a `serve_resident` round trip reads 370 us with runs
//! 30 % apart; pinned it reads about 90 us, which is the CPU work of the
//! path — what a change to the program can move — and runs agree within
//! a few percent once the host's speed is calibrated out (see `probe`).

/// CPUs the mask type can name; enough for any box the benchmark meets.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread. The call writes at
    // most that many bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed,
    // only read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) -> bool {
    false
}

/// The pin of a run: the CPUs the process was allowed at start, and the
/// one it was pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    allowed: Mask,
    cpu: usize,
}

/// The highest-numbered CPU in `mask` (CPU 0 takes most of a small
/// box's interrupts).
fn highest(mask: &Mask) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

fn only(cpu: usize) -> Mask {
    let mut mask: Mask = [0; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

impl Pin {
    /// Pins the calling thread, and with it every thread it spawns from
    /// now on, to the highest CPU it is allowed. `None` where the
    /// platform has no such call or refuses it: the run goes on unpinned.
    pub fn one_cpu() -> Option<Pin> {
        let allowed = get()?;
        let cpu = highest(&allowed)?;
        set(&only(cpu)).then_some(Pin { allowed, cpu })
    }

    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Runs `f` with the calling thread allowed every CPU again — for
    /// the one measurement that is about a second core — and pins it
    /// back afterwards. Threads `f` spawns inherit the wide mask.
    pub fn lifted<T>(pin: Option<Pin>, f: impl FnOnce() -> T) -> T {
        match pin {
            Some(pin) if set(&pin.allowed) => {
                let out = f();
                set(&only(pin.cpu));
                out
            }
            _ => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_of_a_mask() {
        let mut mask: Mask = [0; MASK_WORDS];
        assert_eq!(highest(&mask), None);
        mask[0] = 0b0110;
        assert_eq!(highest(&mask), Some(2));
        mask[1] = 1;
        assert_eq!(highest(&mask), Some(64));
        assert_eq!(highest(&only(70)), Some(70));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_and_lift_round_trip() {
        // Runs on its own test thread, so the pin stays local to it.
        let before = get().expect("affinity is readable on linux");
        let pin = Pin::one_cpu().expect("a thread may narrow its own affinity");
        assert_eq!(get(), Some(only(pin.cpu())));
        let inside = Pin::lifted(Some(pin), get);
        assert_eq!(inside, Some(before));
        assert_eq!(get(), Some(only(pin.cpu())));
        set(&before);
    }
}
