//! The batched lane grid against the sequential reference, lane by lane.
//!
//! These cases step `GridEngine` lanes next to one [`reference::Dnc`] per
//! lane. They live here, not among `hima-dnc`'s unit tests, because this
//! crate links its own build of `hima-dnc`: only here do the engine and
//! the reference share one `DncParams` and `EngineSpec`.

#[cfg(test)]
mod tests {
    use crate::reference;
    use hima_dnc::{BoxedEngine, DncParams, EngineBuilder, EngineSpec, LaneMask};
    use hima_tensor::Matrix;

    fn params() -> DncParams {
        DncParams::new(16, 4, 2).with_hidden(24).with_io(5, 6)
    }

    /// A monolithic f32 grid: the batched twin of the monolithic reference.
    fn mono(batch: usize, seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).lanes(batch).seed(seed).build()
    }

    /// A sharded f32 grid: the batched twin of the sharded reference.
    fn sharded(tiles: usize, batch: usize, seed: u64) -> BoxedEngine {
        EngineBuilder::new(params()).sharded(tiles).lanes(batch).seed(seed).build()
    }

    /// One reference per lane, built from the spec and seed of the grid.
    fn references(p: DncParams, spec: EngineSpec, seed: u64, n: usize) -> Vec<reference::Dnc> {
        (0..n).map(|_| reference::Dnc::new(p, spec, seed)).collect()
    }

    /// Stacks per-lane inputs for one time step into a `B × I` block.
    fn step_block(lanes: &[Vec<Vec<f32>>], t: usize) -> Matrix {
        let rows: Vec<&[f32]> = lanes.iter().map(|lane| lane[t].as_slice()).collect();
        Matrix::from_rows(&rows)
    }

    /// Per-lane streams of lengths `lens`, with lane-, time- and
    /// element-dependent values.
    fn ragged_lane_inputs(lens: &[usize], width: usize) -> Vec<Vec<Vec<f32>>> {
        lens.iter()
            .enumerate()
            .map(|(b, &len)| {
                (0..len)
                    .map(|t| {
                        (0..width)
                            .map(|i| (((b * 131 + t * 17 + i * 7) as f32) * 0.13).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Pads lane `b`'s input with zeros once its stream has ended and
    /// returns the block plus the step's mask.
    fn masked_block(lanes: &[Vec<Vec<f32>>], t: usize, width: usize) -> (Matrix, LaneMask) {
        let lens: Vec<usize> = lanes.iter().map(Vec::len).collect();
        let zero = vec![0.0f32; width];
        let rows: Vec<&[f32]> = lanes
            .iter()
            .map(|lane| lane.get(t).map_or(zero.as_slice(), Vec::as_slice))
            .collect();
        (Matrix::from_rows(&rows), LaneMask::for_step(&lens, t))
    }

    #[test]
    fn batch_dnc_matches_sequential_lanes_exactly() {
        let (batch, steps) = (4, 6);
        let lanes = ragged_lane_inputs(&[steps; 4], 5);
        let mut batched = mono(batch, 11);
        let mut sequential = references(params(), EngineSpec::monolithic(), 11, batch);
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dnc) in sequential.iter_mut().enumerate() {
                let want = dnc.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn batch_dncd_matches_sequential_lanes_exactly() {
        let (batch, steps) = (3, 5);
        let lanes = ragged_lane_inputs(&[steps; 3], 5);
        let mut batched = sharded(4, batch, 23);
        let mut sequential = references(params(), EngineSpec::sharded(4), 23, batch);
        for t in 0..steps {
            let y = batched.step_batch(&step_block(&lanes, t));
            for (b, dncd) in sequential.iter_mut().enumerate() {
                let want = dncd.step(&lanes[b][t]);
                assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
            }
        }
    }

    #[test]
    fn batched_from_existing_model_shares_weights() {
        let mut batched = mono(2, 31);
        let mut fresh = reference::Dnc::new(params(), EngineSpec::monolithic(), 31);
        let x = vec![0.25f32; 5];
        let block = Matrix::from_rows(&[x.as_slice(), x.as_slice()]);
        let y = batched.step_batch(&block);
        let want = fresh.step(&x);
        assert_eq!(y.row(0), &want[..]);
        assert_eq!(y.row(1), &want[..]);
    }

    #[test]
    fn masked_batch_dnc_matches_sequential_ragged_lanes_exactly() {
        let lens = [5usize, 2, 4];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = mono(3, 11);
        let mut sequential = references(params(), EngineSpec::monolithic(), 11, 3);
        for t in 0..5 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dnc) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dnc.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                    assert_eq!(batched.last_read_row(b), dnc.last_read(), "lane {b} t {t}");
                } else {
                    assert!(y.row(b).iter().all(|&x| x == 0.0), "ended lane {b} outputs zero");
                    assert_eq!(
                        batched.last_read_row(b),
                        dnc.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_batch_dncd_matches_sequential_ragged_lanes_exactly() {
        let lens = [1usize, 4, 3];
        let lanes = ragged_lane_inputs(&lens, 5);
        let mut batched = sharded(4, 3, 23);
        let mut sequential = references(params(), EngineSpec::sharded(4), 23, 3);
        for t in 0..4 {
            let (block, mask) = masked_block(&lanes, t, 5);
            let y = batched.step_batch_masked(&block, &mask);
            for (b, dncd) in sequential.iter_mut().enumerate() {
                if t < lens[b] {
                    let want = dncd.step(&lanes[b][t]);
                    assert_eq!(y.row(b), &want[..], "lane {b} t {t}");
                } else {
                    assert_eq!(
                        batched.last_read_row(b),
                        dncd.last_read(),
                        "ended lane {b} read vector frozen at t {t}"
                    );
                }
            }
        }
    }

    /// Packed weights at widths the panels do not divide — 40 gate
    /// columns (two panels and a half), a 38-column interface (two
    /// panels, a quarter, two remainder columns) and 3 outputs (no panel
    /// at all) — against the reference, which multiplies the row-major
    /// matrices by plain `matvec`: five lanes (a group of four and a lone
    /// lane) under ragged masks, on both topologies.
    #[test]
    fn packed_weights_match_the_matvec_oracles_at_awkward_widths() {
        let p = DncParams::new(12, 5, 2).with_hidden(10).with_io(7, 3);
        let lens = [6usize, 2, 5, 3, 6];
        let lanes = ragged_lane_inputs(&lens, 7);
        let mut mono = EngineBuilder::new(p).lanes(5).seed(3).build();
        let mut sharded = EngineBuilder::new(p).sharded(3).lanes(5).seed(3).build();
        let mut dncs = references(p, EngineSpec::monolithic(), 3, 5);
        let mut dncds = references(p, EngineSpec::sharded(3), 3, 5);
        for t in 0..6 {
            let (block, mask) = masked_block(&lanes, t, 7);
            let (ym, ys) =
                (mono.step_batch_masked(&block, &mask), sharded.step_batch_masked(&block, &mask));
            for b in mask.active_lanes() {
                assert_eq!(ym.row(b), &dncs[b].step(&lanes[b][t])[..], "mono lane {b} t {t}");
                assert_eq!(ys.row(b), &dncds[b].step(&lanes[b][t])[..], "sharded lane {b} t {t}");
                assert_eq!(mono.last_read_row(b), dncs[b].last_read());
                assert_eq!(sharded.last_read_row(b), dncds[b].last_read());
            }
        }
    }
}
