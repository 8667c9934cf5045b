//! Cache-key stability properties: equal (bytecode, config) pairs
//! always key identically, and every single-switch config change —
//! including `optimize_ir` and `range_guards` — moves to a different
//! key, so no stale verdict can ever be replayed for a config it was
//! not computed under.

use ethainter::{Config, StorageModel};
use proptest::collection::vec;
use proptest::prelude::*;
use store::cache_key;

fn arb_config() -> impl Strategy<Value = Config> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(guards, storage, conservative, freeze, opt, range, witness)| Config {
            guard_modeling: guards,
            storage_taint: storage,
            storage_model: if conservative {
                StorageModel::Conservative
            } else {
                StorageModel::Precise
            },
            freeze_guards: freeze,
            optimize_ir: opt,
            range_guards: range,
            witness,
        })
}

/// Every config that differs from `cfg` in exactly one field.
fn single_flips(cfg: &Config) -> Vec<(&'static str, Config)> {
    vec![
        ("guard_modeling", Config { guard_modeling: !cfg.guard_modeling, ..*cfg }),
        ("storage_taint", Config { storage_taint: !cfg.storage_taint, ..*cfg }),
        (
            "storage_model",
            Config {
                storage_model: match cfg.storage_model {
                    StorageModel::Precise => StorageModel::Conservative,
                    StorageModel::Conservative => StorageModel::Precise,
                },
                ..*cfg
            },
        ),
        ("freeze_guards", Config { freeze_guards: !cfg.freeze_guards, ..*cfg }),
        ("optimize_ir", Config { optimize_ir: !cfg.optimize_ir, ..*cfg }),
        ("range_guards", Config { range_guards: !cfg.range_guards, ..*cfg }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Determinism: an independently reconstructed (bytecode, config)
    /// pair produces the identical key, and the hex form round-trips.
    #[test]
    fn equal_inputs_produce_equal_keys(
        code in vec(any::<u8>(), 0..256),
        cfg in arb_config(),
    ) {
        let rebuilt = Config { ..cfg };
        let k1 = cache_key(&code, &cfg);
        let k2 = cache_key(&code.clone(), &rebuilt);
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(store::CacheKey::from_hex(&k1.to_hex()).unwrap(), k1);
        prop_assert_eq!(cfg.fingerprint(), rebuilt.fingerprint());
    }

    /// Sensitivity: flipping any *single* config field changes the key
    /// (for the same bytecode), and all seven keys — the original plus
    /// its six single-field neighbours — are pairwise distinct.
    #[test]
    fn any_single_flag_flip_changes_the_key(
        code in vec(any::<u8>(), 0..256),
        cfg in arb_config(),
    ) {
        let base = cache_key(&code, &cfg);
        let mut keys = vec![("base", base)];
        for (field, flipped) in single_flips(&cfg) {
            let k = cache_key(&code, &flipped);
            prop_assert_ne!(k, base, "flipping {} must change the key", field);
            prop_assert_ne!(
                flipped.fingerprint(),
                cfg.fingerprint(),
                "flipping {} must change the fingerprint",
                field
            );
            keys.push((field, k));
        }
        for (i, (fa, ka)) in keys.iter().enumerate() {
            for (fb, kb) in keys.iter().skip(i + 1) {
                prop_assert_ne!(ka, kb, "{} and {} collide", fa, fb);
            }
        }
    }

    /// The bytecode is part of the address: perturbing one byte (or
    /// appending one) changes the key under the same config.
    #[test]
    fn bytecode_changes_change_the_key(
        code in vec(any::<u8>(), 1..256),
        cfg in arb_config(),
        at in any::<usize>(),
    ) {
        let base = cache_key(&code, &cfg);
        let mut flipped = code.clone();
        let i = at % flipped.len();
        flipped[i] ^= 0x01;
        prop_assert_ne!(cache_key(&flipped, &cfg), base);
        let mut extended = code.clone();
        extended.push(0x00);
        prop_assert_ne!(cache_key(&extended, &cfg), base);
    }

    /// The one deliberate insensitivity: `witness` only attaches
    /// provenance riders (which the store strips before persisting
    /// anything), so flipping it must NOT move the key — a cache
    /// populated without witnesses stays warm when `--witness` turns on.
    #[test]
    fn witness_flip_keeps_the_key(
        code in vec(any::<u8>(), 0..256),
        cfg in arb_config(),
    ) {
        let other = Config { witness: !cfg.witness, ..cfg };
        prop_assert_eq!(cache_key(&code, &other), cache_key(&code, &cfg));
        prop_assert_eq!(other.fingerprint(), cfg.fingerprint());
    }
}
