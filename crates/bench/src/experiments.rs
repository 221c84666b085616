//! The paper's evaluation, one module per table or figure, each printing
//! the paper's reported values next to the measured ones. `hima_cli list`
//! and `hima_cli run <id|all>` read [`EXPERIMENTS`] and call the entries
//! in-process: an experiment reads no arguments and keeps no
//! process-global state.

mod approx;
mod fig10;
mod fig11;
mod fig12a;
mod fig12b;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod modes;
mod pareto;
mod table1;

/// One registry entry: the id `hima_cli run` takes, what the experiment
/// reproduces, and its entry point.
pub type Experiment = (&'static str, &'static str, fn());

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("table1", "Table 1: DNC kernel analysis", table1::run),
    ("fig4", "Fig. 4: CPU/GPU runtime breakdown", fig4::run),
    ("fig5", "Fig. 5(d): NoC speedup scalability", fig5::run),
    ("fig6", "Fig. 6: partition traffic sweeps", fig6::run),
    ("fig7", "Fig. 7: two-stage usage sort", fig7::run),
    ("fig10", "Fig. 10: DNC-D accuracy vs DNC", fig10::run),
    ("fig11", "Fig. 11: speed/area/power of the prototypes", fig11::run),
    ("fig12a", "Fig. 12(a): area/power scalability", fig12a::run),
    ("fig12b", "Fig. 12(b-d): cross-design comparison", fig12b::run),
    ("modes", "Ablation: NoC mode x traffic pattern", modes::run),
    ("approx", "Ablation: skimming / PLA softmax / Q16.16", approx::run),
    ("pareto", "Design space: speed/area/power Pareto frontier", pareto::run),
];

/// The entries `hima_cli run <which>` runs: all of them for `"all"`, the
/// one with that id otherwise, and `None` for an unknown id.
pub fn select(which: &str) -> Option<&'static [Experiment]> {
    if which == "all" {
        return Some(&EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|(id, _, _)| *id == which)?;
    Some(&EXPERIMENTS[i..=i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_each_one_resolves() {
        for (i, (id, _, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|(other, _, _)| other != id), "{id} twice");
            let selected = select(id).expect("a listed id resolves");
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].0, *id);
        }
        assert_eq!(select("all").map(<[_]>::len), Some(EXPERIMENTS.len()));
    }

    #[test]
    fn an_unknown_id_is_an_error() {
        for which in ["", "fig99", "Fig4", "table1_kernels", "pareto_explorer"] {
            assert!(select(which).is_none(), "{which:?} resolved");
        }
    }

    #[test]
    fn the_fast_experiments_run_in_process() {
        for id in ["table1", "fig4", "fig5", "fig6", "fig7", "fig11", "fig12a", "modes", "pareto"] {
            let (_, _, run) = select(id).expect("listed")[0];
            run();
        }
    }
}
