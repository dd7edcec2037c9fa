//! Experiment scale selection.

use mea_data::SynthConfig;

/// How big the experiments run, and the synthetic datasets they train on
/// at each scale:
///
/// | preset | stands in for | scale | classes | clusters | image | train/test per class |
/// |---|---|---|---|---|---|---|
/// | `cifar10_like` | CIFAR-10 (Fig. 2) | smoke | 10 | 4 | 16² | 24 / 10 |
/// | | | repro | 10 | 4 | 16² | 30 / 10 |
/// | | | full | 10 | 4 | 16² | 60 / 10 |
/// | `cifar100_like` | CIFAR-100 | smoke | 20 | 5 | 16² | 24 / 8 |
/// | | | repro | 100 | 20 | 16² | 24 / 8 |
/// | | | full | 100 | 20 | 16² | 40 / 10 |
/// | `imagenet_like` | ImageNet | smoke | 12 | 4 | 24² | 14 / 6 |
/// | | | repro | 40 | 8 | 24² | 20 / 8 |
/// | | | full | 40 | 8 | 24² | 36 / 10 |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; the default, and the scale CI runs.
    Smoke,
    /// The documented reproduction scale (minutes per experiment).
    Repro,
    /// Larger budgets for tighter numbers.
    Full,
}

impl Scale {
    /// Parses a `MEA_SCALE` value, ignoring case: `smoke`, `repro` or
    /// `full`, and the empty string means [`Scale::Smoke`]. `None` for
    /// anything else.
    pub(crate) fn parse(value: &str) -> Option<Scale> {
        match value.to_lowercase().as_str() {
            "" | "smoke" => Some(Scale::Smoke),
            "repro" => Some(Scale::Repro),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads `MEA_SCALE` from the environment (unset means
    /// [`Scale::Smoke`]). Any value `Scale::parse` rejects exits the
    /// process with the accepted values, so a typo never quietly runs at
    /// smoke scale.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("MEA_SCALE").unwrap_or_default();
        let value = value.to_string_lossy();
        Scale::parse(&value).unwrap_or_else(|| {
            eprintln!("MEA_SCALE={value:?} is not a scale: use smoke, repro or full (unset means smoke)");
            std::process::exit(2)
        })
    }

    /// Training epochs for backbone/edge phases.
    pub(crate) fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Repro => 14,
            Scale::Full => 24,
        }
    }

    /// A CIFAR-100-like dataset scaled to this budget.
    pub(crate) fn cifar100_like(self, seed: u64) -> SynthConfig {
        let (classes, clusters, train, test) = match self {
            Scale::Smoke => (20, 5, 24, 8),
            Scale::Repro => (100, 20, 24, 8),
            Scale::Full => (100, 20, 40, 10),
        };
        SynthConfig {
            num_classes: classes,
            num_clusters: clusters,
            image_hw: 16,
            feature_dim: 16,
            train_per_class: train,
            test_per_class: test,
            cluster_separation: 2.2,
            spread_tight: 0.28,
            spread_loose: 1.1,
            noise_mean: 0.62,
            noise_cap: 2.8,
            seed,
        }
    }

    /// A CIFAR-10-like dataset scaled to this budget (Fig. 2).
    pub(crate) fn cifar10_like(self, seed: u64) -> SynthConfig {
        let mut cfg = self.cifar100_like(seed);
        cfg.num_classes = 10;
        cfg.num_clusters = 4;
        cfg.feature_dim = 14;
        cfg.train_per_class = match self {
            Scale::Smoke => 24,
            Scale::Repro => 30,
            Scale::Full => 60,
        };
        cfg.test_per_class = 10;
        cfg
    }

    /// An ImageNet-like dataset scaled to this budget.
    pub(crate) fn imagenet_like(self, seed: u64) -> SynthConfig {
        let (classes, clusters, train, test) = match self {
            Scale::Smoke => (12, 4, 14, 6),
            Scale::Repro => (40, 8, 20, 8),
            Scale::Full => (40, 8, 36, 10),
        };
        SynthConfig {
            num_classes: classes,
            num_clusters: clusters,
            image_hw: 24,
            feature_dim: 16,
            train_per_class: train,
            test_per_class: test,
            cluster_separation: 2.0,
            spread_tight: 0.26,
            spread_loose: 1.0,
            noise_mean: 0.65,
            noise_cap: 2.8,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_documented_table() {
        type Preset = fn(Scale, u64) -> SynthConfig;
        // (preset, scale, classes, clusters, image side, train, test), one
        // row per row of the table in `Scale`'s docs.
        let rows: [(Preset, Scale, usize, usize, usize, usize, usize); 9] = [
            (Scale::cifar10_like, Scale::Smoke, 10, 4, 16, 24, 10),
            (Scale::cifar10_like, Scale::Repro, 10, 4, 16, 30, 10),
            (Scale::cifar10_like, Scale::Full, 10, 4, 16, 60, 10),
            (Scale::cifar100_like, Scale::Smoke, 20, 5, 16, 24, 8),
            (Scale::cifar100_like, Scale::Repro, 100, 20, 16, 24, 8),
            (Scale::cifar100_like, Scale::Full, 100, 20, 16, 40, 10),
            (Scale::imagenet_like, Scale::Smoke, 12, 4, 24, 14, 6),
            (Scale::imagenet_like, Scale::Repro, 40, 8, 24, 20, 8),
            (Scale::imagenet_like, Scale::Full, 40, 8, 24, 36, 10),
        ];
        for (i, (preset, scale, classes, clusters, hw, train, test)) in rows.into_iter().enumerate() {
            let c = preset(scale, 0);
            let got = (c.num_classes, c.num_clusters, c.image_hw, c.train_per_class, c.test_per_class);
            assert_eq!(got, (classes, clusters, hw, train, test), "table row {}", i + 1);
        }
    }

    #[test]
    fn parse_accepts_the_three_scales_and_rejects_the_rest() {
        assert_eq!(Scale::parse(""), Some(Scale::Smoke));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("Repro"), Some(Scale::Repro));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        for typo in ["reproduction", "smok", " repro", "1"] {
            assert_eq!(Scale::parse(typo), None, "{typo:?}");
        }
    }
}
