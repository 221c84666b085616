//! Seeded input generation. Everything a workload feeds the system is
//! built here, up front, from `--seed`: the ragged episode waves of the
//! offline workloads, and the session draws and step-input pool of the
//! served ones. The measured code only ever sees the generated values.

use hima::tasks::episode::{masked_step_block, max_len};
use hima::tasks::{Episode, TASKS};
use hima::tensor::{LaneMask, Matrix};

/// SplitMix64: small, seedable, and good enough for draws and inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is tiny next to 2^64, so
    /// the bias is far below anything a benchmark could see).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A running 64-bit FNV-1a digest over `f32` bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    pub fn row(&mut self, row: &[f32]) {
        for v in row {
            self.word(v.to_bits() as u64);
        }
    }
}

/// The ragged episode generator of both offline workloads: task 3 with
/// a length jitter of 8 (13..=21 steps, about 80 % lane occupancy).
const RAGGED_JITTER: usize = 8;

/// One wave: `lanes` ragged episodes padded into a masked lane grid.
pub struct Wave {
    pub episodes: Vec<Episode>,
    /// One `(input block, lane mask)` per grid step, built up front so
    /// the timed loop measures stepping, not block assembly.
    pub grid: Vec<(Matrix, LaneMask)>,
}

impl Wave {
    /// Active lane-steps of the wave: what the masks must add up to.
    pub fn active_lane_steps(&self) -> usize {
        self.episodes.iter().map(Episode::len).sum()
    }
}

/// The pool of waves an offline workload cycles through.
pub fn waves(seed: u64, lanes: usize, count: usize) -> Vec<Wave> {
    let task = TASKS[2].with_jitter(RAGGED_JITTER);
    (0..count)
        .map(|w| {
            let episodes: Vec<Episode> =
                (0..lanes).map(|lane| task.episode_at(seed, w * lanes + lane)).collect();
            let steps = max_len(&episodes).expect("a wave has at least one lane");
            let grid = (0..steps).map(|t| masked_step_block(&episodes, t)).collect();
            Wave { episodes, grid }
        })
        .collect()
}

/// Digest of a wave pool: every input bit and every mask bit, in order.
pub fn waves_digest(waves: &[Wave]) -> Digest {
    let mut d = Digest::default();
    for wave in waves {
        for (block, mask) in &wave.grid {
            d.row(block.as_slice());
            for &on in mask.as_bools() {
                d.word(on as u64);
            }
        }
    }
    d
}

/// Connections of every served workload: two client threads, two TCP
/// connections (`nproc` is 2, and the protocol allows one request in
/// flight per connection, so this is also the in-flight depth).
pub const CONNECTIONS: usize = 2;

/// Session draws per connection; a run longer than this wraps around.
const DRAWS: usize = 1 << 16;
/// Rows in the step-input pool.
const POOL_ROWS: usize = 4096;

/// The generated traffic of a served workload.
pub struct ServedInputs {
    /// Sessions owned by each connection (a disjoint half of the total).
    pub per_conn: usize,
    pub width: usize,
    /// `draws[c][i]`: which of connection `c`'s own sessions its `i`-th
    /// request goes to.
    draws: [Vec<u8>; CONNECTIONS],
    pool: Vec<f32>,
}

impl ServedInputs {
    pub fn new(seed: u64, sessions: usize, width: usize) -> Self {
        assert!(sessions.is_multiple_of(CONNECTIONS) && sessions / CONNECTIONS <= 256);
        let per_conn = sessions / CONNECTIONS;
        let mut rng = Rng::new(seed);
        let draws = [0, 1].map(|_| (0..DRAWS).map(|_| rng.below(per_conn) as u8).collect());
        let pool = (0..POOL_ROWS * width).map(|_| rng.unit_f32()).collect();
        Self { per_conn, width, draws, pool }
    }

    /// The session (index within connection `conn`'s own sessions) of
    /// that connection's `i`-th request.
    pub fn draw(&self, conn: usize, i: usize) -> usize {
        self.draws[conn][i % DRAWS] as usize
    }

    /// The input row of global session `session` at its step `step`.
    pub fn row(&self, session: usize, step: usize) -> &[f32] {
        let r = (session * 977 + step) % POOL_ROWS;
        &self.pool[r * self.width..(r + 1) * self.width]
    }

    /// Global index of connection `conn`'s `local`-th session.
    pub fn global(&self, conn: usize, local: usize) -> usize {
        conn * self.per_conn + local
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for draws in &self.draws {
            for &s in draws {
                d.word(s as u64);
            }
        }
        d.row(&self.pool);
        d
    }
}

/// Two distinct seeded picks out of `n` (the sessions or lanes the
/// correctness gate replays solo).
pub fn pick_two(seed: u64, n: usize) -> [usize; 2] {
    assert!(n >= 2);
    let mut rng = Rng::new(seed ^ 0x5EED_CAFE);
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    [a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = ServedInputs::new(2021, 32, 16);
        let b = ServedInputs::new(2021, 32, 16);
        let c = ServedInputs::new(2022, 32, 16);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(waves_digest(&waves(7, 4, 3)), waves_digest(&waves(7, 4, 3)));
        assert_ne!(waves_digest(&waves(7, 4, 3)), waves_digest(&waves(8, 4, 3)));
    }

    #[test]
    fn draws_stay_within_the_connections_own_sessions() {
        for sessions in [8, 16, 32] {
            let inputs = ServedInputs::new(99, sessions, 16);
            let mut hit = vec![false; sessions];
            for conn in 0..CONNECTIONS {
                for i in 0..DRAWS + 10 {
                    let local = inputs.draw(conn, i);
                    assert!(local < inputs.per_conn);
                    let g = inputs.global(conn, local);
                    assert_eq!(
                        g / inputs.per_conn,
                        conn,
                        "session {g} belongs to the other connection"
                    );
                    hit[g] = true;
                }
            }
            assert!(hit.iter().all(|&h| h), "uniform draws reach every session");
        }
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let inputs = ServedInputs::new(5, 32, 16);
        let mut counts = [0usize; 16];
        for i in 0..DRAWS {
            counts[inputs.draw(0, i)] += 1;
        }
        let expect = DRAWS / 16;
        assert!(counts.iter().all(|&c| c > expect * 9 / 10 && c < expect * 11 / 10), "{counts:?}");
    }

    #[test]
    fn inputs_are_bounded_and_varied() {
        let inputs = ServedInputs::new(1, 8, 16);
        let row = inputs.row(3, 17);
        assert_eq!(row.len(), 16);
        assert!(row.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(inputs.row(3, 17), inputs.row(3, 18));
        assert_ne!(inputs.row(3, 17), inputs.row(4, 17));
    }

    #[test]
    fn waves_are_ragged_and_masks_add_up() {
        let pool = waves(2021, 8, 4);
        for wave in &pool {
            let masked: usize = wave.grid.iter().map(|(_, m)| m.active_count()).sum();
            assert_eq!(masked, wave.active_lane_steps());
            assert!(wave.episodes.iter().all(|e| (13..=21).contains(&e.len())));
        }
        let lens: Vec<usize> =
            pool.iter().flat_map(|w| w.episodes.iter().map(Episode::len)).collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "episodes should differ in length");
    }

    #[test]
    fn pick_two_is_distinct_and_seeded() {
        for n in [2, 4, 8, 32] {
            for seed in 0..50 {
                let [a, b] = pick_two(seed, n);
                assert!(a < n && b < n && a != b);
                assert_eq!(pick_two(seed, n), [a, b]);
            }
        }
    }
}
