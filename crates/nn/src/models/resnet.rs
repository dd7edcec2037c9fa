//! ResNet builders: the CIFAR family (`6n+2` layers, e.g. ResNet32 with
//! `n = 5`) and the ImageNet family (ResNet18-style with a 7×7 stem).

use super::{make_head, SegmentSpec, SegmentedCnn};
use crate::blocks::BasicBlock;
use crate::layer::Layer;
use crate::layers::{Activation, BatchNorm2d, Conv2d, MaxPool2d};
use crate::sequential::Sequential;
use mea_tensor::Rng;

/// Configuration of a CIFAR-style ResNet (`6n+2` layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CifarResNetConfig {
    /// Residual blocks per stage (`n`); ResNet32 uses 5.
    pub blocks_per_stage: usize,
    /// Channels of the three stages; the paper uses `(16, 32, 64)`.
    pub channels: [usize; 3],
    /// Number of classes of the head exit.
    pub num_classes: usize,
    /// Input spatial size (CIFAR: 32; the repro-scale preset uses 16).
    pub input_hw: usize,
}

impl CifarResNetConfig {
    /// The paper's ResNet32 on CIFAR-100: `n = 5`, channels 16/32/64.
    pub fn resnet32_cifar100() -> Self {
        CifarResNetConfig { blocks_per_stage: 5, channels: [16, 32, 64], num_classes: 100, input_hw: 32 }
    }

    /// A scaled-down variant that trains in seconds on a 2-CPU box while
    /// preserving the three-stage structure.
    pub fn repro_scale(num_classes: usize) -> Self {
        CifarResNetConfig { blocks_per_stage: 1, channels: [8, 16, 32], num_classes, input_hw: 16 }
    }
}

/// Builds a CIFAR-style ResNet as four segments: `stem`, `stage1`, `stage2`,
/// `stage3`. The head is `GlobalAvgPool → Linear`.
pub fn resnet_cifar(config: &CifarResNetConfig, rng: &mut Rng) -> SegmentedCnn {
    let [c1, c2, c3] = config.channels;
    let n = config.blocks_per_stage;
    assert!(n >= 1, "a ResNet needs at least one block per stage");

    let stem = Sequential::new(vec![
        Box::new(Conv2d::new(3, c1, 3, 1, 1, false, rng)) as Box<dyn Layer>,
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Activation::relu()),
    ]);
    let stage = |in_c: usize, out_c: usize, first_stride: usize, rng: &mut Rng| {
        let mut s = Sequential::empty();
        s.push(Box::new(BasicBlock::new(in_c, out_c, first_stride, rng)));
        for _ in 1..n {
            s.push(Box::new(BasicBlock::new(out_c, out_c, 1, rng)));
        }
        s
    };
    let segments = vec![stem, stage(c1, c1, 1, rng), stage(c1, c2, 2, rng), stage(c2, c3, 2, rng)];
    let specs = vec![
        SegmentSpec { out_channels: c1, downsample: 1 },
        SegmentSpec { out_channels: c1, downsample: 1 },
        SegmentSpec { out_channels: c2, downsample: 2 },
        SegmentSpec { out_channels: c3, downsample: 2 },
    ];
    let head = make_head(c3, config.num_classes, rng);
    SegmentedCnn {
        segments,
        specs,
        head,
        num_classes: config.num_classes,
        in_shape: [3, config.input_hw, config.input_hw],
    }
}

/// Configuration of an ImageNet-style ResNet with basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageNetResNetConfig {
    /// Residual blocks in each of the four stages; ResNet18 is `[2,2,2,2]`.
    pub blocks_per_stage: [usize; 4],
    /// Stage channels; the standard family uses `[64, 128, 256, 512]`.
    pub channels: [usize; 4],
    /// Number of classes of the head exit.
    pub num_classes: usize,
    /// Input spatial size (ImageNet: 224; repro-scale presets are smaller).
    pub input_hw: usize,
}

impl ImageNetResNetConfig {
    /// The paper's ResNet18 main block at full ImageNet scale.
    pub fn resnet18_imagenet() -> Self {
        ImageNetResNetConfig {
            blocks_per_stage: [2, 2, 2, 2],
            channels: [64, 128, 256, 512],
            num_classes: 1000,
            input_hw: 224,
        }
    }

    /// A scaled-down four-stage variant for the 2-CPU repro runs.
    pub fn repro_scale(num_classes: usize) -> Self {
        ImageNetResNetConfig {
            blocks_per_stage: [1, 1, 1, 1],
            channels: [8, 16, 24, 32],
            num_classes,
            input_hw: 24,
        }
    }
}

/// Builds an ImageNet-style ResNet as five segments: `stem` (7×7 stride-2
/// conv + 2×2 max pool), then four residual stages.
pub fn resnet_imagenet(config: &ImageNetResNetConfig, rng: &mut Rng) -> SegmentedCnn {
    let [c1, c2, c3, c4] = config.channels;
    // Small repro inputs skip the stem downsampling so feature maps stay
    // non-degenerate; full-scale inputs use the standard stride-2 + pool.
    let full_scale = config.input_hw >= 64;
    let (stem, stem_down): (Sequential, usize) = if full_scale {
        (
            Sequential::new(vec![
                Box::new(Conv2d::new(3, c1, 7, 2, 3, false, rng)) as Box<dyn Layer>,
                Box::new(BatchNorm2d::new(c1)),
                Box::new(Activation::relu()),
                Box::new(MaxPool2d::new(2)),
            ]),
            4,
        )
    } else {
        (
            Sequential::new(vec![
                Box::new(Conv2d::new(3, c1, 3, 1, 1, false, rng)) as Box<dyn Layer>,
                Box::new(BatchNorm2d::new(c1)),
                Box::new(Activation::relu()),
            ]),
            1,
        )
    };

    let stage = |in_c: usize, out_c: usize, blocks: usize, first_stride: usize, rng: &mut Rng| {
        let mut s = Sequential::empty();
        s.push(Box::new(BasicBlock::new(in_c, out_c, first_stride, rng)));
        for _ in 1..blocks {
            s.push(Box::new(BasicBlock::new(out_c, out_c, 1, rng)));
        }
        s
    };
    let [n1, n2, n3, n4] = config.blocks_per_stage;
    let segments = vec![
        stem,
        stage(c1, c1, n1, 1, rng),
        stage(c1, c2, n2, 2, rng),
        stage(c2, c3, n3, 2, rng),
        stage(c3, c4, n4, 2, rng),
    ];
    let specs = vec![
        SegmentSpec { out_channels: c1, downsample: stem_down },
        SegmentSpec { out_channels: c1, downsample: 1 },
        SegmentSpec { out_channels: c2, downsample: 2 },
        SegmentSpec { out_channels: c3, downsample: 2 },
        SegmentSpec { out_channels: c4, downsample: 2 },
    ];
    let head = make_head(c4, config.num_classes, rng);
    SegmentedCnn {
        segments,
        specs,
        head,
        num_classes: config.num_classes,
        in_shape: [3, config.input_hw, config.input_hw],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use mea_tensor::Tensor;

    #[test]
    fn resnet32_has_paper_scale_counts() {
        // The real ResNet32 for CIFAR has ~0.46M parameters and ~69M MACs;
        // this anchors the Table VI reproduction.
        let mut rng = Rng::new(0);
        let net = resnet_cifar(&CifarResNetConfig::resnet32_cifar100(), &mut rng);
        let params = net.param_count();
        assert!((400_000..550_000).contains(&params), "ResNet32 params {params}");
        let macs = net.total_macs();
        assert!((60_000_000..80_000_000).contains(&macs), "ResNet32 MACs {macs}");
    }

    #[test]
    fn resnet18_has_paper_scale_counts() {
        // torchvision's ResNet18 has 11.69M parameters (11.18M conv/bn +
        // 0.51M fc) and ~1.8G MACs at 224². Our basic-block build with a
        // 2×2 pool should land in the same range.
        let mut rng = Rng::new(0);
        let net = resnet_imagenet(&ImageNetResNetConfig::resnet18_imagenet(), &mut rng);
        let params = net.param_count();
        assert!((10_500_000..12_500_000).contains(&params), "ResNet18 params {params}");
        let macs = net.total_macs();
        assert!((1_400_000_000..2_200_000_000).contains(&macs), "ResNet18 MACs {macs}");
    }

    #[test]
    fn repro_scale_forward_pass() {
        let mut rng = Rng::new(1);
        let mut net = resnet_cifar(&CifarResNetConfig::repro_scale(10), &mut rng);
        let x = Tensor::randn([2, 3, 16, 16], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn imagenet_repro_scale_forward_pass() {
        let mut rng = Rng::new(2);
        let mut net = resnet_imagenet(&ImageNetResNetConfig::repro_scale(7), &mut rng);
        let x = Tensor::randn([2, 3, 24, 24], 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 7]);
    }
}
