//! Property tests for the synopsis fsck: every synopsis XBUILD produces —
//! on any of the three paper generators, at any seed and budget — must
//! pass `xtwig_core::validate`, from the coarse starting point through
//! the refined result and its snapshot reload.

use proptest::prelude::*;
use xtwig::core::construct::{xbuild, BuildOptions, TruthSource};
use xtwig::core::{coarse_synopsis, load_synopsis, save_synopsis_v3, validate};
use xtwig::datagen::{imdb, sprot, xmark, ImdbConfig, SprotConfig, XMarkConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    #[test]
    fn validate_accepts_every_xbuild_synopsis(
        which in 0usize..3,
        seed in 0u64..10_000,
        extra_budget in 300usize..1500,
    ) {
        let doc = match which {
            0 => xmark(XMarkConfig { scale: 0.01, seed }),
            1 => imdb(ImdbConfig::scaled(0.01, seed)),
            _ => sprot(SprotConfig::scaled(0.01, seed)),
        };
        let coarse = coarse_synopsis(&doc);
        prop_assert!(validate(&coarse).is_ok(), "coarse: {:?}", validate(&coarse).err());

        let opts = BuildOptions {
            budget_bytes: coarse.size_bytes() + extra_budget,
            refinements_per_round: 3,
            max_rounds: 25,
            workload_with_values: seed % 2 == 0,
            seed,
            ..Default::default()
        };
        let (built, _) = xbuild(&doc, TruthSource::Exact, &opts);
        if let Err(report) = validate(&built) {
            prop_assert!(false, "built synopsis failed fsck: {report}");
        }

        let reloaded = load_synopsis(&save_synopsis_v3(&built)).expect("snapshot loads");
        if let Err(report) = validate(&reloaded) {
            prop_assert!(false, "reloaded synopsis failed fsck: {report}");
        }
    }
}
