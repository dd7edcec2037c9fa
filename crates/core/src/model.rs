//! The MEANet architecture: main block, extension block, adaptive block
//! (paper §III, Fig. 4).

use mea_data::ClassDict;
use mea_metrics::flops::CostSplit;
use mea_metrics::memory::{part_cost, PartCost};
use mea_nn::blocks::{separable_stack, BasicBlock};
use mea_nn::layer::{Layer, Mode, Param};
use mea_nn::layers::{Activation, BatchNorm2d, Conv2d};
use mea_nn::models::{make_head, SegmentSpec, SegmentedCnn};
use mea_nn::Sequential;
use mea_tensor::{Rng, Tensor};

/// How the edge-trained mirror stages are built: the adaptive block's
/// per-segment stages and, for a fresh model-B extension, the bridge stage
/// that maps the merged features down to the extension width.
///
/// The paper describes the adaptive block as *"a light-weight version of
/// the main block"*; [`AdaptivePlan::DepthwiseSeparable`] realises that
/// with MobileNet-style factorised convolutions and is the default.
/// [`AdaptivePlan::DenseMirror`] keeps the original dense 3×3 mirror for
/// comparison — on wide backbones it trains ~9× more parameters than the
/// paper's Table VI reports (MobileNetV2 B: ~6.2M vs the claimed ~1.1M).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptivePlan {
    /// One dense `3×3 conv + BN + ReLU` per mirrored stage, and a dense
    /// residual block bridging into a fresh extension.
    DenseMirror,
    /// One `depthwise 3×3 + BN + ReLU + pointwise 1×1 + BN + ReLU` stage
    /// per mirrored segment (and as the fresh-extension bridge) — same
    /// output geometry, ~9× fewer weights per stage.
    #[default]
    DepthwiseSeparable,
}

/// How the adaptive block's features join the main block's features at the
/// extension block input (paper: *"the sum or concatenation of them are used
/// as the inputs to the extension block"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Element-wise sum (same channel count).
    Sum,
    /// Channel concatenation (doubles the extension's input channels).
    Concat,
}

/// How the extension block is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExtensionPlan {
    /// Model A: the tail of the pretrained backbone becomes the extension.
    /// Only [`Merge::Sum`] is possible, because the pretrained first tail
    /// layer expects the original channel count.
    FromBackbone,
    /// Model B: a fresh extension of `blocks` residual blocks at `channels`
    /// width is created and trained from scratch at the edge.
    Fresh {
        /// Width of the fresh extension blocks.
        channels: usize,
        /// Number of residual blocks.
        blocks: usize,
    },
}

/// Which MEANet variant to assemble from a backbone (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Model A: the first `main_segments` backbone segments form the main
    /// block; the rest become the extension. A new exit is created for the
    /// main block.
    SplitBackbone {
        /// Number of leading segments kept in the main block.
        main_segments: usize,
    },
    /// Model B: the complete backbone (and its trained exit) is the main
    /// block; the extension is built fresh.
    FullBackbone {
        /// Width of the fresh extension blocks.
        extension_channels: usize,
        /// Number of fresh residual blocks.
        extension_blocks: usize,
    },
}

/// The locally trained blocks, present once hard classes are known.
#[derive(Debug)]
struct EdgeBlocks {
    adaptive: Sequential,
    extension: Sequential,
    exit: Sequential,
    dict: ClassDict,
    plan: AdaptivePlan,
}

/// A MEANet: frozen main block + exit over all classes, and (after
/// [`MeaNet::attach_edge_blocks`]) locally trained adaptive/extension blocks
/// with an exit over hard classes.
#[derive(Debug)]
pub struct MeaNet {
    main: Sequential,
    main_exit: Sequential,
    main_specs: Vec<SegmentSpec>,
    pending_extension: Option<Sequential>, // model A tail awaiting its exit
    plan: ExtensionPlan,
    edge: Option<EdgeBlocks>,
    merge: Merge,
    in_shape: [usize; 3],
    main_out_channels: usize,
}

impl MeaNet {
    /// Assembles a MEANet from a (typically cloud-pretrained) backbone.
    ///
    /// * Model A ([`Variant::SplitBackbone`]): keeps the first segments as
    ///   the main block, parks the pretrained tail as the future extension
    ///   and creates a *new, untrained* main exit (train it with
    ///   `crate::train::train_main_exit`).
    /// * Model B ([`Variant::FullBackbone`]): the whole backbone plus its
    ///   trained head is the main block.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero/all segments for model A,
    /// or [`Merge::Concat`] with a pretrained extension).
    pub fn from_backbone(backbone: SegmentedCnn, variant: Variant, merge: Merge, rng: &mut Rng) -> Self {
        let num_classes = backbone.num_classes;
        let in_shape = backbone.in_shape;
        let all_specs = backbone.specs.clone();
        let (segments, head) = backbone.into_parts();
        match variant {
            Variant::SplitBackbone { main_segments } => {
                assert!(
                    main_segments >= 1 && main_segments < segments.len(),
                    "model A needs 1 <= main_segments < {} segments, got {main_segments}",
                    segments.len()
                );
                assert_eq!(
                    merge,
                    Merge::Sum,
                    "model A reuses pretrained tail layers; only Merge::Sum keeps their input width"
                );
                let mut segs = segments;
                let tail_segs = segs.split_off(main_segments);
                let mut main = Sequential::empty();
                for s in segs {
                    main.append(s);
                }
                let mut tail = Sequential::empty();
                for s in tail_segs {
                    tail.append(s);
                }
                let main_specs = all_specs[..main_segments].to_vec();
                let main_out_channels = main_specs.last().expect("at least one segment").out_channels;
                // The fresh model-A exit keeps some spatial information
                // (avg-pool 2×2 → flatten → FC): a global pool over the few
                // early-stage channels would bottleneck a 100-class exit.
                let (_, mo) = main.macs(&in_shape);
                let (c, h, w) = (mo[0], mo[1], mo[2]);
                let (ph, pw) = (h / 2, w / 2);
                let main_exit = Sequential::new(vec![
                    Box::new(mea_nn::layers::AvgPool2d::new(2)) as Box<dyn Layer>,
                    Box::new(mea_nn::layers::Flatten::new()),
                    Box::new(mea_nn::layers::Linear::new(c * ph * pw, num_classes, rng)),
                ]);
                MeaNet {
                    main,
                    main_exit,
                    main_specs,
                    pending_extension: Some(tail),
                    plan: ExtensionPlan::FromBackbone,
                    edge: None,
                    merge,
                    in_shape,
                    main_out_channels,
                }
            }
            Variant::FullBackbone { extension_channels, extension_blocks } => {
                assert!(extension_blocks >= 1, "model B needs at least one extension block");
                let mut main = Sequential::empty();
                for s in segments {
                    main.append(s);
                }
                let main_out_channels = all_specs.last().expect("non-empty backbone").out_channels;
                MeaNet {
                    main,
                    main_exit: head,
                    main_specs: all_specs,
                    pending_extension: None,
                    plan: ExtensionPlan::Fresh { channels: extension_channels, blocks: extension_blocks },
                    edge: None,
                    merge,
                    in_shape,
                    main_out_channels,
                }
            }
        }
    }

    /// Builds the adaptive block and the extension block + exit for the
    /// given hard classes (Algorithm 1, step 6).
    ///
    /// The adaptive block is a light-weight mirror of the main block: one
    /// stage per main segment, matching that segment's output channels and
    /// downsampling — so its output shape equals the main block's output
    /// shape (paper: *"the adaptive block is a light-weight version of the
    /// main block"*). How each stage is realised — and, for a fresh
    /// model-B extension, how the merged features are bridged down to the
    /// extension width — is governed by `plan`:
    ///
    /// * [`AdaptivePlan::DepthwiseSeparable`] (default): depthwise 3×3 +
    ///   pointwise 1×1 stages, and a separable bridge followed by
    ///   `blocks - 1` residual blocks. This matches the paper's Table VI
    ///   trained-parameter budget (~1.1M for the MobileNetV2 B row).
    /// * [`AdaptivePlan::DenseMirror`]: dense `3×3 conv + BN + ReLU`
    ///   stages, and `blocks` dense residual blocks (the first bridging) —
    ///   the original heavyweight behaviour.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks were already attached.
    pub fn attach_edge_blocks(&mut self, plan: AdaptivePlan, dict: ClassDict, rng: &mut Rng) {
        assert!(self.edge.is_none(), "edge blocks already attached");
        let mut adaptive = Sequential::empty();
        let mut prev_c = self.in_shape[0];
        for spec in &self.main_specs {
            match plan {
                AdaptivePlan::DenseMirror => {
                    adaptive.push(Box::new(Conv2d::new(
                        prev_c,
                        spec.out_channels,
                        3,
                        spec.downsample,
                        1,
                        false,
                        rng,
                    )));
                    adaptive.push(Box::new(BatchNorm2d::new(spec.out_channels)));
                    adaptive.push(Box::new(Activation::relu()));
                }
                AdaptivePlan::DepthwiseSeparable => {
                    adaptive.append(separable_stack(prev_c, spec.out_channels, spec.downsample, rng));
                }
            }
            prev_c = spec.out_channels;
        }

        let merged_channels = match self.merge {
            Merge::Sum => self.main_out_channels,
            Merge::Concat => 2 * self.main_out_channels,
        };
        let (extension, ext_out_channels) = match self.plan {
            ExtensionPlan::FromBackbone => {
                let tail = self.pending_extension.take().expect("model A tail present");
                let (_, out) = tail.macs(&self.main_out_shape());
                (tail, out[0])
            }
            ExtensionPlan::Fresh { channels, blocks } => {
                let mut ext = Sequential::empty();
                match plan {
                    AdaptivePlan::DenseMirror => {
                        ext.push(Box::new(BasicBlock::new(merged_channels, channels, 1, rng)))
                    }
                    // The bridge from the (possibly very wide) merged
                    // features is where a dense extension's parameters
                    // concentrate; under the separable plan it, too, is
                    // factorised.
                    AdaptivePlan::DepthwiseSeparable => {
                        ext.append(separable_stack(merged_channels, channels, 1, rng));
                    }
                }
                for _ in 1..blocks {
                    ext.push(Box::new(BasicBlock::new(channels, channels, 1, rng)));
                }
                (ext, channels)
            }
        };
        let exit = make_head(ext_out_channels, dict.len(), rng);
        self.edge = Some(EdgeBlocks { adaptive, extension, exit, dict, plan });
    }

    // ------------------------------------------------------------ accessors

    /// Expected input shape `[C, H, W]`.
    pub fn in_shape(&self) -> [usize; 3] {
        self.in_shape
    }

    /// The hard-class dictionary, once edge blocks are attached.
    pub fn hard_dict(&self) -> Option<&ClassDict> {
        self.edge.as_ref().map(|e| &e.dict)
    }

    /// The [`AdaptivePlan`] the edge blocks were built with, once attached.
    pub fn adaptive_plan(&self) -> Option<AdaptivePlan> {
        self.edge.as_ref().map(|e| e.plan)
    }

    /// Parameters trained at the edge (adaptive + extension + exit) — the
    /// Table VI "trained" column, without computing the full
    /// [`MeaNet::cost_split`].
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub fn trained_params(&self) -> u64 {
        let edge = self.edge.as_ref().expect("edge blocks not attached");
        (edge.adaptive.param_count() + edge.extension.param_count() + edge.exit.param_count()) as u64
    }

    /// `IsHard` from the paper: whether a *predicted* class is hard.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn is_hard(&self, class: usize) -> bool {
        self.hard_dict().expect("edge blocks not attached").contains(class)
    }

    /// Output shape `[C, H, W]` of the main block for one image.
    pub fn main_out_shape(&self) -> Vec<usize> {
        let (_, out) = self.main.macs(&self.in_shape);
        out
    }

    // -------------------------------------------------------- forward paths

    /// Runs the main block, returning its feature maps `F`.
    pub fn main_features(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.main.forward(x, mode)
    }

    /// Runs the main exit on precomputed features, returning `ŷ1` logits
    /// over all classes.
    pub fn main_logits_from(&mut self, features: &Tensor, mode: Mode) -> Tensor {
        self.main_exit.forward(features, mode)
    }

    /// Convenience: main block + main exit in one call.
    pub fn main_logits(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let f = self.main_features(x, mode);
        self.main_logits_from(&f, mode)
    }

    /// Runs the adaptive + extension path, returning `ŷ2` logits over the
    /// hard classes. `features` must be the main block's output for the
    /// same `x`.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached or feature shapes disagree.
    pub fn extension_logits(&mut self, x: &Tensor, features: &Tensor, mode: Mode) -> Tensor {
        let merge = self.merge;
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        let mut f2 = edge.adaptive.forward(x, mode);
        assert_eq!(
            f2.dims(),
            features.dims(),
            "adaptive output {:?} must match main features {:?}",
            f2.dims(),
            features.dims()
        );
        let merged = match merge {
            Merge::Sum => {
                f2.add_assign(features);
                f2
            }
            Merge::Concat => Tensor::concat_channels(features, &f2),
        };
        let feats = edge.extension.forward_owned(merged, mode);
        edge.exit.forward_owned(feats, mode)
    }

    // ------------------------------------------------------- backward paths

    /// Backpropagates a main-exit logits gradient through the main exit and
    /// the main block (used only during cloud-side pretraining).
    pub(crate) fn main_backward(&mut self, grad_logits: &Tensor) {
        let g = self.main_exit.backward(grad_logits);
        let _ = self.main.backward(&g);
    }

    /// Backpropagates a main-exit logits gradient through the exit only
    /// (main block frozen) — for fitting a fresh model-A exit.
    pub(crate) fn main_exit_backward(&mut self, grad_logits: &Tensor) {
        let _ = self.main_exit.backward(grad_logits);
    }

    /// Backpropagates an extension-exit logits gradient through the exit,
    /// the extension block and — via the merge — the adaptive block. The
    /// gradient flowing toward the frozen main block is discarded, exactly
    /// as in blockwise optimisation.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn edge_backward(&mut self, grad_logits: &Tensor) {
        let merge = self.merge;
        let main_c = self.main_out_channels;
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        let g = edge.exit.backward(grad_logits);
        let g = edge.extension.backward(&g);
        let g_f2 = match merge {
            Merge::Sum => g,
            Merge::Concat => channel_slice(&g, main_c, 2 * main_c),
        };
        let _ = edge.adaptive.backward(&g_f2);
    }

    /// Joint-optimisation variant of [`MeaNet::edge_backward`]: the gradient
    /// flowing toward the main block's features is *not* discarded but
    /// propagated through the main block (which must have run its forward in
    /// training mode). Used only by the Fig. 6 joint baseline.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn edge_backward_joint(&mut self, grad_logits: &Tensor) {
        let merge = self.merge;
        let main_c = self.main_out_channels;
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        let g = edge.exit.backward(grad_logits);
        let g = edge.extension.backward(&g);
        let (g_f, g_f2) = match merge {
            Merge::Sum => (g.clone(), g),
            Merge::Concat => (channel_slice(&g, 0, main_c), channel_slice(&g, main_c, 2 * main_c)),
        };
        let _ = edge.adaptive.backward(&g_f2);
        let _ = self.main.backward(&g_f);
    }

    // ---------------------------------------------------- parameter access

    /// Visits the parameters of the main exit only.
    pub(crate) fn visit_main_exit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main_exit.visit_params(f);
    }

    /// Visits the parameters of the adaptive/extension blocks and their
    /// exit (edge-trained).
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn visit_edge_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        edge.adaptive.visit_params(f);
        edge.extension.visit_params(f);
        edge.exit.visit_params(f);
    }

    /// Visits every parameter (for joint-optimisation baselines).
    pub(crate) fn visit_all_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        self.main_exit.visit_params(f);
        if let Some(edge) = &mut self.edge {
            edge.adaptive.visit_params(f);
            edge.extension.visit_params(f);
            edge.exit.visit_params(f);
        }
    }

    /// Clears cached activations everywhere.
    pub(crate) fn clear_caches(&mut self) {
        self.main.clear_cache();
        self.main_exit.clear_cache();
        if let Some(edge) = &mut self.edge {
            edge.adaptive.clear_cache();
            edge.extension.clear_cache();
            edge.exit.clear_cache();
        }
    }

    // --------------------------------------------------------- introspection

    /// Table VI's fixed-vs-trained split: the frozen main block (+ exit) is
    /// "fixed"; adaptive, extension and its exit are "trained".
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub fn cost_split(&self) -> CostSplit {
        let edge = self.edge.as_ref().expect("edge blocks not attached");
        let mut split = CostSplit::new();
        let main_out = split.add(&self.main, &self.in_shape, true);
        let _ = split.add(&self.main_exit, &main_out, true);
        let adaptive_out = split.add(&edge.adaptive, &self.in_shape, false);
        let merged = match self.merge {
            Merge::Sum => adaptive_out,
            Merge::Concat => vec![2 * adaptive_out[0], adaptive_out[1], adaptive_out[2]],
        };
        let ext_out = split.add(&edge.extension, &merged, false);
        let _ = split.add(&edge.exit, &ext_out, false);
        split
    }

    // ------------------------------------------------------------ deployment

    /// Snapshots the main block and its exit — what the cloud "downloads to
    /// the edge" in Algorithm 1, step 4. Pair it with the hard-class
    /// [`ClassDict`] to complete the paper's deployment bundle.
    pub fn main_state_dict(&mut self) -> mea_nn::StateDict {
        let mut both = Sequential::empty();
        // Temporarily chain main + exit so one dict covers both, then
        // restore. (Sequential::append moves layers; we move them back.)
        std::mem::swap(&mut both, &mut self.main);
        let main_len = both.len();
        let mut exit = Sequential::empty();
        std::mem::swap(&mut exit, &mut self.main_exit);
        both.append(exit);
        let dict = mea_nn::StateDict::from_layer(&mut both);
        let tail = both.split_off(main_len);
        self.main = both;
        self.main_exit = tail;
        dict
    }

    /// Restores a snapshot produced by [`MeaNet::main_state_dict`] into
    /// this network's main block and exit (architectures must match).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`mea_nn::StateDictError`] on count or shape
    /// mismatch; the model is unchanged on error.
    pub fn load_main_state_dict(&mut self, dict: &mea_nn::StateDict) -> Result<(), mea_nn::StateDictError> {
        let mut both = Sequential::empty();
        std::mem::swap(&mut both, &mut self.main);
        let main_len = both.len();
        let mut exit = Sequential::empty();
        std::mem::swap(&mut exit, &mut self.main_exit);
        both.append(exit);
        let result = dict.apply_to_layer(&mut both);
        let tail = both.split_off(main_len);
        self.main = both;
        self.main_exit = tail;
        result
    }

    /// Snapshots the locally trained blocks (adaptive, extension, exit) —
    /// together with [`MeaNet::main_state_dict`] this captures the whole
    /// deployed model, which is how the serving runtime replicates one
    /// trained MEANet bitwise-identically onto every edge worker.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn edge_state_dict(&mut self) -> mea_nn::StateDict {
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        let mut chain = Sequential::empty();
        std::mem::swap(&mut chain, &mut edge.adaptive);
        let adaptive_len = chain.len();
        let mut ext = Sequential::empty();
        std::mem::swap(&mut ext, &mut edge.extension);
        chain.append(ext);
        let ext_end = chain.len();
        let mut exit = Sequential::empty();
        std::mem::swap(&mut exit, &mut edge.exit);
        chain.append(exit);
        let dict = mea_nn::StateDict::from_layer(&mut chain);
        let mut tail = chain.split_off(adaptive_len);
        edge.adaptive = chain;
        let exit_part = tail.split_off(ext_end - adaptive_len);
        edge.extension = tail;
        edge.exit = exit_part;
        dict
    }

    /// Restores a snapshot produced by [`MeaNet::edge_state_dict`] into
    /// this network's edge blocks (architectures must match).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`mea_nn::StateDictError`] on count or shape
    /// mismatch; the model is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub(crate) fn load_edge_state_dict(&mut self, dict: &mea_nn::StateDict) -> Result<(), mea_nn::StateDictError> {
        let edge = self.edge.as_mut().expect("edge blocks not attached");
        let mut chain = Sequential::empty();
        std::mem::swap(&mut chain, &mut edge.adaptive);
        let adaptive_len = chain.len();
        let mut ext = Sequential::empty();
        std::mem::swap(&mut ext, &mut edge.extension);
        chain.append(ext);
        let ext_end = chain.len();
        let mut exit = Sequential::empty();
        std::mem::swap(&mut exit, &mut edge.exit);
        chain.append(exit);
        let result = dict.apply_to_layer(&mut chain);
        let mut tail = chain.split_off(adaptive_len);
        edge.adaptive = chain;
        let exit_part = tail.split_off(ext_end - adaptive_len);
        edge.extension = tail;
        edge.exit = exit_part;
        result
    }

    /// Copies every trained weight (main + edge) into `other`, which must
    /// have been assembled with identical architecture choices — the
    /// replication step that gives each serving worker its own model.
    ///
    /// # Panics
    ///
    /// Panics on architecture mismatch or missing edge blocks on either
    /// side.
    pub fn replicate_into(&mut self, other: &mut MeaNet) {
        let main = self.main_state_dict();
        other.load_main_state_dict(&main).expect("replica main architecture matches");
        let edge = self.edge_state_dict();
        other.load_edge_state_dict(&edge).expect("replica edge architecture matches");
    }

    /// Memory-model parts for Fig. 6: `(frozen, trained)` under blockwise
    /// training.
    ///
    /// # Panics
    ///
    /// Panics if edge blocks are not attached.
    pub fn memory_parts(&self) -> (Vec<PartCost>, Vec<PartCost>) {
        let edge = self.edge.as_ref().expect("edge blocks not attached");
        let main_out = self.main_out_shape();
        let frozen = vec![part_cost(&self.main, &self.in_shape), part_cost(&self.main_exit, &main_out)];
        let merged = match self.merge {
            Merge::Sum => main_out.clone(),
            Merge::Concat => vec![2 * main_out[0], main_out[1], main_out[2]],
        };
        let (_, ext_out) = edge.extension.macs(&merged);
        let trained = vec![
            part_cost(&edge.adaptive, &self.in_shape),
            part_cost(&edge.extension, &merged),
            part_cost(&edge.exit, &ext_out),
        ];
        (frozen, trained)
    }
}

/// Extracts channels `[from, to)` of an `[N, C, H, W]` tensor.
fn channel_slice(x: &Tensor, from: usize, to: usize) -> Tensor {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert!(from < to && to <= c, "invalid channel slice [{from}, {to}) of {c}");
    let plane = h * w;
    let width = to - from;
    let mut out = Tensor::zeros([n, width, h, w]);
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for img in 0..n {
        let s = (img * c + from) * plane;
        let d = img * width * plane;
        dst[d..d + width * plane].copy_from_slice(&src[s..s + width * plane]);
    }
    out
}

#[cfg(test)]
impl MeaNet {
    /// Parameters of the frozen main block + exit — the Table VI "fixed"
    /// column. Available before edge blocks are attached (model A counts
    /// its parked tail as pending-extension, not fixed).
    pub(crate) fn fixed_params(&self) -> u64 {
        (self.main.param_count() + self.main_exit.param_count()) as u64
    }

    /// Visits the parameters of the main block and its exit (cloud-trained), so
    /// tests can check that edge training leaves them frozen.
    pub(crate) fn visit_main_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        self.main_exit.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::models::{resnet_cifar, CifarResNetConfig};

    fn tiny_backbone(classes: usize, rng: &mut Rng) -> SegmentedCnn {
        let mut cfg = CifarResNetConfig::repro_scale(classes);
        cfg.input_hw = 8;
        resnet_cifar(&cfg, rng)
    }

    #[test]
    fn model_b_forward_paths_have_expected_shapes() {
        let mut rng = Rng::new(0);
        let backbone = tiny_backbone(6, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[1, 3, 5]), &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let f = net.main_features(&x, Mode::Eval);
        assert_eq!(f.dims(), &[2, 32, 2, 2]);
        let y1 = net.main_logits_from(&f, Mode::Eval);
        assert_eq!(y1.dims(), &[2, 6]);
        let y2 = net.extension_logits(&x, &f, Mode::Eval);
        assert_eq!(y2.dims(), &[2, 3]); // hard classes only
    }

    #[test]
    fn model_a_split_keeps_pretrained_tail() {
        let mut rng = Rng::new(1);
        let backbone = tiny_backbone(6, &mut rng);
        let mut net =
            MeaNet::from_backbone(backbone, Variant::SplitBackbone { main_segments: 2 }, Merge::Sum, &mut rng);
        // Main output after 2 segments: 8 channels at full resolution.
        assert_eq!(net.main_out_shape(), vec![8, 8, 8]);
        net.attach_edge_blocks(AdaptivePlan::DenseMirror, ClassDict::new(&[0, 2]), &mut rng);
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let f = net.main_features(&x, Mode::Eval);
        let y1 = net.main_logits_from(&f, Mode::Eval);
        assert_eq!(y1.dims(), &[1, 6]);
        let y2 = net.extension_logits(&x, &f, Mode::Eval);
        assert_eq!(y2.dims(), &[1, 2]);
    }

    #[test]
    fn replicate_into_makes_a_bitwise_identical_worker() {
        let mut rng_a = Rng::new(7);
        let backbone_a = tiny_backbone(6, &mut rng_a);
        let mut a = MeaNet::from_backbone(
            backbone_a,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng_a,
        );
        a.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[1, 3, 5]), &mut rng_a);

        // Same architecture, different weights (different seed).
        let mut rng_b = Rng::new(8);
        let backbone_b = tiny_backbone(6, &mut rng_b);
        let mut b = MeaNet::from_backbone(
            backbone_b,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng_b,
        );
        b.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[1, 3, 5]), &mut rng_b);

        let mut probe = Rng::new(9);
        let x = Tensor::randn([3, 3, 8, 8], 1.0, &mut probe);
        let fa = a.main_features(&x, Mode::Eval);
        let fb = b.main_features(&x, Mode::Eval);
        assert_ne!(fa, fb, "different seeds should give different weights");

        a.replicate_into(&mut b);
        let fa = a.main_features(&x, Mode::Eval);
        let fb = b.main_features(&x, Mode::Eval);
        assert_eq!(fa, fb, "replicated main block must match bitwise");
        let ya = a.extension_logits(&x, &fa, Mode::Eval);
        let yb = b.extension_logits(&x, &fb, Mode::Eval);
        assert_eq!(ya, yb, "replicated edge blocks must match bitwise");
        let la = a.main_logits_from(&fa, Mode::Eval);
        let lb = b.main_logits_from(&fb, Mode::Eval);
        assert_eq!(la, lb, "replicated main exit must match bitwise");
    }

    #[test]
    fn edge_state_dict_round_trips_through_restore() {
        let mut rng = Rng::new(11);
        let backbone = tiny_backbone(4, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 1]), &mut rng);
        let before = net.edge_state_dict();
        // Perturb, restore, snapshot again: must equal the original.
        net.visit_edge_params(&mut |p| p.value.map_inplace(|v| v + 1.0));
        let perturbed = net.edge_state_dict();
        assert_ne!(before, perturbed);
        net.load_edge_state_dict(&before).expect("matching architecture");
        assert_eq!(net.edge_state_dict(), before);
        // The block structure survived the chain/split dance.
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let f = net.main_features(&x, Mode::Eval);
        assert_eq!(net.extension_logits(&x, &f, Mode::Eval).dims(), &[1, 2]);
    }

    #[test]
    fn concat_merge_doubles_extension_input() {
        let mut rng = Rng::new(2);
        let backbone = tiny_backbone(4, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Concat,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 1]), &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let f = net.main_features(&x, Mode::Eval);
        let y2 = net.extension_logits(&x, &f, Mode::Eval);
        assert_eq!(y2.dims(), &[2, 2]);
        // Trained MACs must exceed the Sum variant's (wider first block).
        let split = net.cost_split();
        assert!(split.trained_macs > 0);
    }

    #[test]
    #[should_panic(expected = "only Merge::Sum")]
    fn model_a_with_concat_is_rejected() {
        let mut rng = Rng::new(3);
        let backbone = tiny_backbone(4, &mut rng);
        let _ =
            MeaNet::from_backbone(backbone, Variant::SplitBackbone { main_segments: 2 }, Merge::Concat, &mut rng);
    }

    #[test]
    fn edge_training_leaves_main_untouched() {
        let mut rng = Rng::new(4);
        let backbone = tiny_backbone(4, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[1, 2]), &mut rng);
        let mut main_before = Vec::new();
        net.visit_main_params(&mut |p| main_before.push(p.value.clone()));

        // One edge training step: forward train on edge path, backward, SGD.
        let x = Tensor::randn([4, 3, 8, 8], 1.0, &mut rng);
        let f = net.main_features(&x, Mode::Eval); // frozen main: eval mode
        let y2 = net.extension_logits(&x, &f, Mode::Train);
        let loss = mea_nn::CrossEntropyLoss::new().forward(&y2, &[0, 1, 0, 1]);
        net.edge_backward(&loss.grad);
        let mut opt = mea_nn::Sgd::new(0.1, 0.9, 0.0);
        opt.step_with(&mut |f| net.visit_edge_params(f));

        let mut main_after = Vec::new();
        net.visit_main_params(&mut |p| main_after.push(p.value.clone()));
        assert_eq!(main_before, main_after, "frozen main block changed during edge training");

        // And the edge blocks did change.
        let mut edge_grad_norm = 0.0;
        net.visit_edge_params(&mut |p| edge_grad_norm += p.grad.sq_norm());
        assert!(edge_grad_norm > 0.0, "edge gradients all zero");
    }

    #[test]
    fn channel_slice_extracts_second_half() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 2, 2, 2]).unwrap();
        let s = channel_slice(&x, 1, 2);
        assert_eq!(s.dims(), &[2, 1, 2, 2]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 6.0, 7.0, 12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn main_state_dict_round_trips_across_instances() {
        let mut rng = Rng::new(6);
        let backbone = tiny_backbone(6, &mut rng);
        let mut src = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        let dict = src.main_state_dict();

        // A differently initialised twin receives the download.
        let mut rng2 = Rng::new(1234);
        let backbone2 = tiny_backbone(6, &mut rng2);
        let mut dst = MeaNet::from_backbone(
            backbone2,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng2,
        );
        dst.load_main_state_dict(&dict).unwrap();
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let a = src.main_logits(&x, Mode::Eval);
        let b = dst.main_logits(&x, Mode::Eval);
        assert_eq!(a, b, "downloaded main block must reproduce the cloud's logits");
    }

    #[test]
    fn state_dict_survives_encode_decode_and_net_still_works() {
        let mut rng = Rng::new(7);
        let backbone = tiny_backbone(4, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
            Merge::Sum,
            &mut rng,
        );
        let x = Tensor::randn([1, 3, 8, 8], 1.0, &mut rng);
        let before = net.main_logits(&x, Mode::Eval);
        let dict = net.main_state_dict();
        // Capturing must not perturb the live network.
        let after = net.main_logits(&x, Mode::Eval);
        assert_eq!(before, after);
        let decoded = mea_nn::StateDict::decode(dict.encode()).unwrap();
        assert_eq!(decoded, dict);
    }

    #[test]
    fn cost_split_partitions_all_params() {
        let mut rng = Rng::new(5);
        let backbone = tiny_backbone(6, &mut rng);
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 1, 2]), &mut rng);
        let split = net.cost_split();
        let mut visited = 0u64;
        net.visit_all_params(&mut |p| visited += p.numel() as u64);
        assert_eq!(split.fixed_params + split.trained_params, visited);
        assert!(split.fixed_params > 0 && split.trained_params > 0);
    }

    /// Builds one model-A (split ResNet) and one model-B (MobileNetV2) net
    /// under the given plan, with edge blocks attached.
    fn nets_under(plan: AdaptivePlan) -> Vec<MeaNet> {
        let mut rng = Rng::new(42);
        let resnet = tiny_backbone(6, &mut rng);
        let mut a =
            MeaNet::from_backbone(resnet, Variant::SplitBackbone { main_segments: 2 }, Merge::Sum, &mut rng);
        a.attach_edge_blocks(plan, ClassDict::new(&[0, 2, 4]), &mut rng);
        let mobilenet = mea_nn::models::mobilenet_v2_lite(6, &mut rng);
        let mut b = MeaNet::from_backbone(
            mobilenet,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng,
        );
        b.attach_edge_blocks(plan, ClassDict::new(&[1, 3, 5]), &mut rng);
        vec![a, b]
    }

    #[test]
    fn trained_params_agree_with_cost_split_for_both_plans() {
        for plan in [AdaptivePlan::DenseMirror, AdaptivePlan::DepthwiseSeparable] {
            for net in nets_under(plan) {
                assert_eq!(net.adaptive_plan(), Some(plan));
                let split = net.cost_split();
                assert_eq!(net.trained_params(), split.trained_params, "{plan:?}");
                assert_eq!(net.fixed_params(), split.fixed_params, "{plan:?}");
            }
        }
    }

    #[test]
    fn separable_plan_is_lighter_and_geometry_compatible() {
        let dense = nets_under(AdaptivePlan::DenseMirror);
        let separable = nets_under(AdaptivePlan::DepthwiseSeparable);
        let mut rng = Rng::new(43);
        for (mut d, mut s) in dense.into_iter().zip(separable) {
            assert!(
                s.trained_params() < d.trained_params(),
                "separable ({}) must train fewer params than dense ({})",
                s.trained_params(),
                d.trained_params()
            );
            // Same fixed side, and the lighter edge path still produces
            // hard-class logits of the same shape.
            assert_eq!(s.fixed_params(), d.fixed_params());
            let hw = s.in_shape()[1];
            let x = Tensor::randn([2, 3, hw, hw], 1.0, &mut rng);
            let fd = d.main_features(&x, Mode::Eval);
            let fs = s.main_features(&x, Mode::Eval);
            let yd = d.extension_logits(&x, &fd, Mode::Eval);
            let ys = s.extension_logits(&x, &fs, Mode::Eval);
            assert_eq!(yd.dims(), ys.dims());
        }
    }

    #[test]
    fn separable_adaptive_params_match_closed_form() {
        // MobileNetV2 repro backbone, model B: the adaptive side of
        // `trained_params()` must equal the separable formula
        // Σ (9·in + 2·in + in·out + 2·out) over mirrored segments, and the
        // extension bridge the same formula at stride 1, + residual blocks
        // + exit.
        let mut rng = Rng::new(44);
        let cfg = mea_nn::models::MobileNetConfig::repro_scale(6);
        let backbone = mea_nn::models::mobilenet_v2(&cfg, &mut rng);
        let specs = backbone.specs.clone();
        let mut net = MeaNet::from_backbone(
            backbone,
            Variant::FullBackbone { extension_channels: 16, extension_blocks: 2 },
            Merge::Sum,
            &mut rng,
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 1, 2]), &mut rng);
        let sep = |i: usize, o: usize| 9 * i + 2 * i + i * o + 2 * o;
        let mut expect = 0usize;
        let mut prev = 3usize;
        for s in &specs {
            expect += sep(prev, s.out_channels);
            prev = s.out_channels;
        }
        expect += sep(cfg.last_channels, 16); // bridge into the fresh extension
        expect += 2 * (16 * 16 * 9) + 2 * (2 * 16); // one residual block at width 16
        expect += 16 * 3 + 3; // exit head over 3 hard classes
        assert_eq!(net.trained_params(), expect as u64);
    }
}
