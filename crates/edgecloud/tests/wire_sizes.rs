//! Bytes per offload at the end-to-end benchmark's split cut, printed as a
//! table:
//!
//! ```sh
//! cargo test --release -p mea-edgecloud --test wire_sizes -- --nocapture
//! ```
//!
//! The system is the benchmark's fixed recipe (`e2e/src/system.rs`: six
//! synthetic classes of 16 × 16 images, the tiny ResNet MEANet and a
//! two-blocks-per-stage cloud ResNet, seed 7), and the offloads are the
//! half of its 480-image pool with the highest main-exit entropy, which
//! `split_int8_uds` offloads at cut 5.

use mea_data::synth::{generate, SynthConfig};
use mea_edgecloud::payload::Payload;
use mea_nn::Mode;
use meanet::model::Variant;
use meanet::pipeline::{BackboneChoice, Pipeline, PipelineConfig};
use meanet::{OffloadPolicy, TrainConfig};

const SEED: u64 = 7;
const CUT: usize = 5;

fn schedule(epochs: usize, batch_size: usize) -> TrainConfig {
    let mut cfg = TrainConfig::repro(epochs);
    cfg.batch_size = batch_size;
    cfg.milestones = vec![epochs - 1];
    cfg
}

#[test]
fn split_cut_bytes_per_offload() {
    let bundle = generate(&SynthConfig {
        num_classes: 6,
        num_clusters: 3,
        image_hw: 16,
        feature_dim: 12,
        train_per_class: 20,
        test_per_class: 80,
        cluster_separation: 3.0,
        spread_tight: 0.2,
        spread_loose: 1.4,
        noise_mean: 0.25,
        noise_cap: 1.5,
        seed: SEED,
    });
    let mut recipe = PipelineConfig::repro_resnet_b(6, 4, SEED);
    recipe.variant = Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 };
    if let Some(BackboneChoice::CifarResNet(cloud)) = &mut recipe.cloud {
        cloud.blocks_per_stage = 2;
    }
    recipe.pretrain = schedule(2, 10);
    recipe.edge_train = schedule(2, 10);
    recipe.cloud_pretrain = schedule(5, 6);
    recipe.cloud_pretrain.base_lr = 0.05;
    let mut pipe = Pipeline::run(&recipe, &bundle.train);
    let pool = &bundle.test;
    let records = pipe.infer_edge_only(pool, 16);
    let entropies: Vec<f32> = records.iter().map(|r| r.entropy).collect();
    let policy = OffloadPolicy::budgeted_from_validation(&entropies, 0.5);
    let cloud = pipe.cloud.as_mut().expect("the recipe configures a cloud");

    let (mut raw, mut coded, mut offloads) = (0usize, 0usize, 0usize);
    let (mut image_f32, mut image_u8, mut longest_growth) = (0, 0, 0isize);
    for (i, record) in records.iter().enumerate() {
        if !policy.should_offload(&[0.5, 0.5], record.entropy) {
            continue;
        }
        let image = pool.images.slice_axis0(i, i + 1);
        image_f32 = Payload::encode_features(&image).len();
        image_u8 = Payload::encode_raw_image(&image).len();
        let act = cloud.forward_prefix(&image, CUT, Mode::Eval);
        // The frame as it was, with the elements raw and no mode byte:
        // tag, scheme, channel count, scale, zero point, rank, dims, data.
        let before = 1 + 1 + 4 + 4 + 4 + 1 + 4 * act.dims().len() + act.numel();
        let frame = Payload::encode_quantized_features(&act);
        let decoded = Payload::decode(frame.clone()).expect("an encoded frame decodes");
        assert_eq!(decoded, Payload::quantize_features(&act), "image {i}: the coded body is lossless");
        longest_growth = longest_growth.max(frame.len() as isize - before as isize);
        raw += before;
        coded += frame.len();
        offloads += 1;
    }
    let mean = |total: usize| total as f64 / offloads as f64;
    println!("bytes per offload over the {offloads} offloaded pool images, split cut {CUT}:");
    println!("| payload                         | bytes    |");
    println!("|---------------------------------|----------|");
    println!("| f32 image                       | {image_f32:>8} |");
    println!("| quantised u8 image              | {image_u8:>8} |");
    println!("| int8 activation, raw body       | {:>8.1} |", mean(raw));
    println!("| int8 activation, as sent now    | {:>8.1} |", mean(coded));
    println!("ratio now / raw body: {:.3}", coded as f64 / raw as f64);

    assert_eq!(offloads, pool.len() / 2);
    assert_eq!((image_f32, image_u8, raw / offloads), (3_090, 786, 3_103));
    assert!(longest_growth <= 1, "a frame grew by {longest_growth} bytes");
    assert!(coded * 100 <= raw * 78, "the coded frames are {coded} bytes against {raw} raw");
}
