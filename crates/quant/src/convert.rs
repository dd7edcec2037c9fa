//! Post-training quantization: walks a trained float network, fuses
//! `conv + BN + ReLU` groups, calibrates activation ranges on sample data
//! and emits an int8 [`QNetwork`].
//!
//! Supported float graphs are compositions of the layers the paper's edge
//! models use: [`Conv2d`], [`DepthwiseConv2d`], [`BatchNorm2d`],
//! [`Activation`], the pools, [`Flatten`], [`Dropout`] (identity at
//! inference), [`Linear`] (terminal only), [`BasicBlock`],
//! [`InvertedResidual`] and nested [`Sequential`]s — i.e. the full ResNet
//! and MobileNetV2 families of `mea-nn`.

use crate::error::QuantError;
use crate::observer::MinMaxObserver;
use crate::qlayers::{qadd, qavg_pool, qglobal_avg_pool, qmax_pool, qrelu, QConv2d, QDepthwiseConv2d, QLinear};
use crate::qparams::QuantParams;
use crate::qtensor::QTensor;
use mea_nn::blocks::{BasicBlock, InvertedResidual};
use mea_nn::layer::{Layer, Mode};
use mea_nn::layers::{
    Activation, AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout, Flatten, GlobalAvgPool, Linear,
    MaxPool2d,
};
use mea_nn::models::SegmentedCnn;
use mea_nn::Sequential;
use mea_tensor::Tensor;

/// One node of the quantized graph.
#[derive(Debug, Clone)]
pub(crate) enum QOp {
    /// Fused int8 convolution (+BN +activation).
    Conv(QConv2d),
    /// Fused int8 depthwise convolution (+BN +activation).
    DepthwiseConv(QDepthwiseConv2d),
    /// Terminal fully connected layer; produces f32 logits.
    Linear(QLinear),
    /// Global average pooling.
    GlobalAvgPool,
    /// Average pooling with the given window.
    AvgPool(usize),
    /// Max pooling with the given window.
    MaxPool(usize),
    /// Flatten `[N, C, H, W] → [N, C·H·W]`.
    Flatten,
    /// Standalone clamped rectifier.
    Relu {
        /// Upper clamp (`None` = plain ReLU, `Some(6.0)` = ReLU6).
        clamp_max: Option<f32>,
    },
    /// Residual block with a requantized add.
    Block(Box<QResidual>),
}

/// A quantized residual block: main path, optional projection shortcut,
/// requantized add, optional final rectifier.
#[derive(Debug, Clone)]
pub(crate) struct QResidual {
    main: Vec<QOp>,
    /// `None` = identity shortcut.
    projection: Option<Vec<QOp>>,
    out_params: QuantParams,
    relu_after_add: bool,
    /// `false` for inverted residuals without a skip: the block is then
    /// just its main path.
    has_skip: bool,
}

/// An int8 network produced by [`quantize_sequential`] /
/// [`quantize_segmented`]: quantizes its input, runs the integer graph and
/// returns f32 logits.
#[derive(Debug, Clone)]
pub struct QNetwork {
    in_params: QuantParams,
    ops: Vec<QOp>,
}

impl QNetwork {
    /// Runs the quantized network on a float `[N, C, H, W]` batch,
    /// returning f32 logits (or the dequantized final feature map when the
    /// graph has no terminal `Linear`).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut q = QTensor::quantize(x, self.in_params.clone());
        for (i, op) in self.ops.iter().enumerate() {
            match apply_op(op, q) {
                Applied::Quantized(next) => q = next,
                Applied::Float(t) => {
                    debug_assert_eq!(i + 1, self.ops.len(), "Linear must be terminal (validated at build)");
                    return t;
                }
            }
        }
        q.dequantize()
    }

    /// Argmax class predictions for a batch.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Total bytes of stored weights/biases — 1 byte per weight against the
    /// float model's 4, which is what makes int8 models attractive to
    /// *download to* the edge.
    pub fn weight_bytes(&self) -> u64 {
        fn op_bytes(op: &QOp) -> u64 {
            match op {
                QOp::Conv(c) => c.weight_bytes(),
                QOp::DepthwiseConv(c) => c.weight_bytes(),
                QOp::Linear(l) => l.weight_bytes(),
                QOp::Block(b) => {
                    b.main.iter().map(op_bytes).sum::<u64>()
                        + b.projection.iter().flatten().map(op_bytes).sum::<u64>()
                }
                _ => 0,
            }
        }
        self.ops.iter().map(op_bytes).sum()
    }
}

enum Applied {
    Quantized(QTensor),
    Float(Tensor),
}

fn apply_op(op: &QOp, q: QTensor) -> Applied {
    match op {
        QOp::Conv(c) => Applied::Quantized(c.forward(&q)),
        QOp::DepthwiseConv(c) => Applied::Quantized(c.forward(&q)),
        QOp::Linear(l) => Applied::Float(l.forward(&q)),
        QOp::GlobalAvgPool => Applied::Quantized(qglobal_avg_pool(&q)),
        QOp::AvgPool(k) => Applied::Quantized(qavg_pool(&q, *k)),
        QOp::MaxPool(k) => Applied::Quantized(qmax_pool(&q, *k)),
        QOp::Flatten => {
            let n = q.dims()[0];
            let rest: usize = q.dims()[1..].iter().product();
            Applied::Quantized(q.reshaped(vec![n, rest]))
        }
        QOp::Relu { clamp_max } => Applied::Quantized(qrelu(&q, *clamp_max)),
        QOp::Block(b) => {
            let mut main = q.clone();
            for op in &b.main {
                main = match apply_op(op, main) {
                    Applied::Quantized(t) => t,
                    Applied::Float(_) => unreachable!("no Linear inside residual blocks"),
                };
            }
            if !b.has_skip {
                return Applied::Quantized(main);
            }
            let shortcut = match &b.projection {
                None => q,
                Some(ops) => {
                    let mut s = q;
                    for op in ops {
                        s = match apply_op(op, s) {
                            Applied::Quantized(t) => t,
                            Applied::Float(_) => unreachable!("no Linear inside residual blocks"),
                        };
                    }
                    s
                }
            };
            Applied::Quantized(qadd(&main, &shortcut, &b.out_params, b.relu_after_add))
        }
    }
}

/// Quantizes a trained float [`Sequential`] with min-max calibration over
/// the given batches.
///
/// The float network is only *run* (eval mode), never modified; `&mut` is
/// required because [`Layer::forward`] caches through `&mut self`.
///
/// # Errors
///
/// Returns [`QuantError::NoCalibrationData`] without batches,
/// [`QuantError::UnsupportedLayer`] for layers outside the supported set,
/// and [`QuantError::LinearNotTerminal`] if a fully connected layer is
/// followed by more compute.
pub fn quantize_sequential(net: &mut Sequential, calib: &[Tensor]) -> Result<QNetwork, QuantError> {
    if calib.is_empty() {
        return Err(QuantError::NoCalibrationData);
    }
    let mut in_obs = MinMaxObserver::new();
    for b in calib {
        in_obs.observe(b);
    }
    let in_params = in_obs.to_affine_params();
    let mut cur: Vec<Tensor> = calib.to_vec();
    let mut cur_params = in_params.clone();
    let mut ops = Vec::new();
    walk_sequential(net, &mut cur, &mut cur_params, &mut ops)?;
    validate_linear_terminal(&ops)?;
    Ok(QNetwork { in_params, ops })
}

/// Quantizes a trained [`SegmentedCnn`] (all segments, then the head).
///
/// # Errors
///
/// Same as [`quantize_sequential`].
pub fn quantize_segmented(net: &mut SegmentedCnn, calib: &[Tensor]) -> Result<QNetwork, QuantError> {
    if calib.is_empty() {
        return Err(QuantError::NoCalibrationData);
    }
    let mut in_obs = MinMaxObserver::new();
    for b in calib {
        in_obs.observe(b);
    }
    let in_params = in_obs.to_affine_params();
    let mut cur: Vec<Tensor> = calib.to_vec();
    let mut cur_params = in_params.clone();
    let mut ops = Vec::new();
    for seg in &mut net.segments {
        walk_sequential(seg, &mut cur, &mut cur_params, &mut ops)?;
    }
    walk_sequential(&mut net.head, &mut cur, &mut cur_params, &mut ops)?;
    validate_linear_terminal(&ops)?;
    Ok(QNetwork { in_params, ops })
}

fn validate_linear_terminal(ops: &[QOp]) -> Result<(), QuantError> {
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, QOp::Linear(_)) && i + 1 != ops.len() {
            return Err(QuantError::LinearNotTerminal);
        }
    }
    Ok(())
}

/// Runs one float layer over every calibration batch.
fn run_layer(layer: &mut dyn Layer, batches: &[Tensor]) -> Vec<Tensor> {
    batches.iter().map(|b| layer.forward(b, Mode::Eval)).collect()
}

fn observe_params(batches: &[Tensor]) -> QuantParams {
    let mut obs = MinMaxObserver::new();
    for b in batches {
        obs.observe(b);
    }
    obs.to_affine_params()
}

/// Fuses and quantizes the children of a [`Sequential`], advancing the
/// calibration batches through the float layers as it goes.
fn walk_sequential(
    seq: &mut Sequential,
    cur: &mut Vec<Tensor>,
    cur_params: &mut QuantParams,
    ops: &mut Vec<QOp>,
) -> Result<(), QuantError> {
    let len = seq.len();
    let mut i = 0;
    while i < len {
        // --- fused dense convolution group -------------------------------
        if let Some(conv) = seq.layers()[i].as_any().downcast_ref::<Conv2d>() {
            let geom = *conv.geom();
            let mut weight = conv.weight_value().clone();
            let out_c = weight.dims()[0];
            let mut bias: Vec<f32> = match conv.bias_value() {
                Some(b) => b.as_slice().to_vec(),
                None => vec![0.0; out_c],
            };
            let mut consumed = 1;
            if let Some(bn) = seq.layers().get(i + 1).and_then(|l| l.as_any().downcast_ref::<BatchNorm2d>()) {
                let (scale, shift) = bn.fold_params();
                fold_scale_into_rows(&mut weight, &scale);
                for (b, (&s, &sh)) in bias.iter_mut().zip(scale.iter().zip(&shift)) {
                    *b = *b * s + sh;
                }
                consumed += 1;
            }
            let relu_clamp = seq
                .layers()
                .get(i + consumed)
                .and_then(|l| l.as_any().downcast_ref::<Activation>().map(|a| a.clamp_max()));
            if relu_clamp.is_some() {
                consumed += 1;
            }
            for j in i..i + consumed {
                *cur = run_layer(seq.layers_mut()[j].as_mut(), cur);
            }
            let out_params = observe_params(cur);
            ops.push(QOp::Conv(QConv2d::new(
                geom,
                &weight,
                &bias,
                cur_params.clone(),
                out_params.clone(),
                relu_clamp,
            )));
            *cur_params = out_params;
            i += consumed;
            continue;
        }
        // --- fused depthwise convolution group ---------------------------
        if let Some(dw) = seq.layers()[i].as_any().downcast_ref::<DepthwiseConv2d>() {
            let (channels, kernel, stride, pad) = dw.geometry();
            let mut weight = dw.weight_value().clone();
            let mut bias = vec![0.0f32; channels];
            let mut consumed = 1;
            if let Some(bn) = seq.layers().get(i + 1).and_then(|l| l.as_any().downcast_ref::<BatchNorm2d>()) {
                let (scale, shift) = bn.fold_params();
                fold_scale_into_rows(&mut weight, &scale);
                for (b, (&s, &sh)) in bias.iter_mut().zip(scale.iter().zip(&shift)) {
                    *b = *b * s + sh;
                }
                consumed += 1;
            }
            let relu_clamp = seq
                .layers()
                .get(i + consumed)
                .and_then(|l| l.as_any().downcast_ref::<Activation>().map(|a| a.clamp_max()));
            if relu_clamp.is_some() {
                consumed += 1;
            }
            for j in i..i + consumed {
                *cur = run_layer(seq.layers_mut()[j].as_mut(), cur);
            }
            let out_params = observe_params(cur);
            ops.push(QOp::DepthwiseConv(QDepthwiseConv2d::new(
                channels,
                kernel,
                stride,
                pad,
                &weight,
                &bias,
                cur_params.clone(),
                out_params.clone(),
                relu_clamp,
            )));
            *cur_params = out_params;
            i += consumed;
            continue;
        }
        // --- residual blocks ----------------------------------------------
        if seq.layers()[i].as_any().is::<BasicBlock>() {
            let block = seq.layers_mut()[i].as_any_mut().downcast_mut::<BasicBlock>().expect("type checked above");
            let input = cur.clone();
            let input_params = cur_params.clone();
            let (main_seq, _) = block.parts_mut();
            let mut main_ops = Vec::new();
            let mut main_params = input_params.clone();
            walk_sequential(main_seq, cur, &mut main_params, &mut main_ops)?;
            let main_out = cur.clone();
            let (_, proj_seq) = block.parts_mut();
            let (projection, shortcut_out) = match proj_seq {
                Some(p) => {
                    let mut proj_cur = input.clone();
                    let mut proj_params = input_params.clone();
                    let mut proj_ops = Vec::new();
                    walk_sequential(p, &mut proj_cur, &mut proj_params, &mut proj_ops)?;
                    (Some(proj_ops), proj_cur)
                }
                None => (None, input),
            };
            // Float reference of the post-add, post-ReLU output.
            let summed: Vec<Tensor> =
                main_out.iter().zip(&shortcut_out).map(|(m, s)| m.add(s).map(|v| v.max(0.0))).collect();
            let out_params = observe_params(&summed);
            ops.push(QOp::Block(Box::new(QResidual {
                main: main_ops,
                projection,
                out_params: out_params.clone(),
                relu_after_add: true,
                has_skip: true,
            })));
            *cur = summed;
            *cur_params = out_params;
            i += 1;
            continue;
        }
        if seq.layers()[i].as_any().is::<InvertedResidual>() {
            let block =
                seq.layers_mut()[i].as_any_mut().downcast_mut::<InvertedResidual>().expect("type checked above");
            let has_skip = block.has_skip();
            let input = cur.clone();
            let input_params = cur_params.clone();
            let mut main_ops = Vec::new();
            let mut main_params = input_params.clone();
            walk_sequential(block.inner_mut(), cur, &mut main_params, &mut main_ops)?;
            if has_skip {
                let summed: Vec<Tensor> = cur.iter().zip(&input).map(|(m, s)| m.add(s)).collect();
                let out_params = observe_params(&summed);
                ops.push(QOp::Block(Box::new(QResidual {
                    main: main_ops,
                    projection: None,
                    out_params: out_params.clone(),
                    relu_after_add: false,
                    has_skip: true,
                })));
                *cur = summed;
                *cur_params = out_params;
            } else {
                ops.extend(main_ops);
                *cur_params = main_params;
            }
            i += 1;
            continue;
        }
        // --- nested sequential --------------------------------------------
        if seq.layers()[i].as_any().is::<Sequential>() {
            let nested =
                seq.layers_mut()[i].as_any_mut().downcast_mut::<Sequential>().expect("type checked above");
            walk_sequential(nested, cur, cur_params, ops)?;
            i += 1;
            continue;
        }
        // --- parameter-free layers -----------------------------------------
        let layer = &seq.layers()[i];
        let any = layer.as_any();
        if let Some(act) = any.downcast_ref::<Activation>() {
            let clamp_max = act.clamp_max();
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            ops.push(QOp::Relu { clamp_max });
            i += 1;
            continue;
        }
        if let Some(p) = any.downcast_ref::<AvgPool2d>() {
            let k = p.kernel();
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            ops.push(QOp::AvgPool(k));
            i += 1;
            continue;
        }
        if let Some(p) = any.downcast_ref::<MaxPool2d>() {
            let k = p.kernel();
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            ops.push(QOp::MaxPool(k));
            i += 1;
            continue;
        }
        if any.is::<GlobalAvgPool>() {
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            ops.push(QOp::GlobalAvgPool);
            i += 1;
            continue;
        }
        if any.is::<Flatten>() {
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            ops.push(QOp::Flatten);
            i += 1;
            continue;
        }
        if any.is::<Dropout>() {
            // Identity at inference: nothing to emit.
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            i += 1;
            continue;
        }
        if let Some(lin) = any.downcast_ref::<Linear>() {
            let weight = lin.weight_value().clone();
            let bias = lin.bias_value().clone();
            ops.push(QOp::Linear(QLinear::new(&weight, &bias, cur_params.clone())));
            *cur = run_layer(seq.layers_mut()[i].as_mut(), cur);
            // Logits stay f32; cur_params no longer meaningful but must not
            // be consumed (Linear is validated terminal).
            i += 1;
            continue;
        }
        return Err(QuantError::UnsupportedLayer { layer: layer.name().to_string() });
    }
    Ok(())
}

/// Scales each leading-axis row of `weight` by the matching per-channel
/// factor (BN folding).
fn fold_scale_into_rows(weight: &mut Tensor, scale: &[f32]) {
    let out_c = weight.dims()[0];
    assert_eq!(out_c, scale.len(), "fold scale length mismatch");
    let row = weight.numel() / out_c;
    let data = weight.as_mut_slice();
    for (c, &s) in scale.iter().enumerate() {
        for v in &mut data[c * row..(c + 1) * row] {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_nn::blocks::BasicBlock;
    use mea_tensor::Rng;

    fn calib(rng: &mut Rng, n_batches: usize, shape: [usize; 4]) -> Vec<Tensor> {
        (0..n_batches).map(|_| Tensor::randn(shape, 1.0, rng)).collect()
    }

    /// Mean absolute difference between float and quantized outputs,
    /// normalised by the float output's value range.
    fn relative_error(float_out: &Tensor, q_out: &Tensor) -> f32 {
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in float_out.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = (hi - lo).max(1e-6);
        let mad: f32 = float_out.as_slice().iter().zip(q_out.as_slice()).map(|(a, b)| (a - b).abs()).sum::<f32>()
            / float_out.numel() as f32;
        mad / range
    }

    #[test]
    fn conv_bn_relu_pipeline_agrees_with_float() {
        let mut rng = Rng::new(0);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Activation::relu()),
            Box::new(Conv2d::new(8, 4, 3, 2, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Activation::relu()),
        ]);
        let batches = calib(&mut rng, 3, [2, 3, 8, 8]);
        let qnet = quantize_sequential(&mut net, &batches).unwrap();
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = qnet.forward(&x);
        assert_eq!(got.dims(), want.dims());
        assert!(relative_error(&want, &got) < 0.03, "error {}", relative_error(&want, &got));
    }

    #[test]
    fn full_classifier_head_agrees() {
        let mut rng = Rng::new(1);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 6, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(Activation::relu()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(6, 4, &mut rng)),
        ]);
        let batches = calib(&mut rng, 2, [4, 1, 6, 6]);
        let qnet = quantize_sequential(&mut net, &batches).unwrap();
        let x = Tensor::randn([4, 1, 6, 6], 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = qnet.forward(&x);
        assert!(relative_error(&want, &got) < 0.05, "error {}", relative_error(&want, &got));
    }

    #[test]
    fn basic_block_round_trips() {
        let mut rng = Rng::new(2);
        let mut net = Sequential::new(vec![Box::new(BasicBlock::new(4, 8, 2, &mut rng)) as Box<dyn Layer>]);
        let batches = calib(&mut rng, 2, [2, 4, 8, 8]);
        let qnet = quantize_sequential(&mut net, &batches).unwrap();
        let x = Tensor::randn([2, 4, 8, 8], 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = qnet.forward(&x);
        assert_eq!(got.dims(), want.dims());
        assert!(relative_error(&want, &got) < 0.05, "error {}", relative_error(&want, &got));
    }

    #[test]
    fn inverted_residual_with_skip_round_trips() {
        let mut rng = Rng::new(3);
        let mut net =
            Sequential::new(vec![Box::new(InvertedResidual::new(6, 6, 1, 2, &mut rng)) as Box<dyn Layer>]);
        let batches = calib(&mut rng, 2, [2, 6, 6, 6]);
        let qnet = quantize_sequential(&mut net, &batches).unwrap();
        let x = Tensor::randn([2, 6, 6, 6], 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = qnet.forward(&x);
        assert!(relative_error(&want, &got) < 0.06, "error {}", relative_error(&want, &got));
    }

    #[test]
    fn weight_bytes_are_a_quarter_of_float() {
        let mut rng = Rng::new(4);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 16, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new(16)),
            Box::new(Activation::relu()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(16, 10, &mut rng)),
        ]);
        let float_param_bytes = 4 * net.param_count() as u64;
        let batches = calib(&mut rng, 1, [2, 3, 8, 8]);
        let qnet = quantize_sequential(&mut net, &batches).unwrap();
        // int8 weights plus 32-bit biases land well under half the float
        // size (BN folds away entirely).
        assert!(qnet.weight_bytes() * 2 < float_param_bytes, "{} vs {float_param_bytes}", qnet.weight_bytes());
    }

    #[test]
    fn no_calibration_data_is_an_error() {
        let mut rng = Rng::new(5);
        let mut net =
            Sequential::new(vec![Box::new(Conv2d::new(1, 1, 1, 1, 0, false, &mut rng)) as Box<dyn Layer>]);
        match quantize_sequential(&mut net, &[]) {
            Err(QuantError::NoCalibrationData) => {}
            other => panic!("expected NoCalibrationData, got {other:?}"),
        }
    }

    #[test]
    fn linear_mid_network_is_rejected() {
        let mut rng = Rng::new(6);
        let mut net = Sequential::new(vec![
            Box::new(Flatten::new()) as Box<dyn Layer>,
            Box::new(Linear::new(4, 4, &mut rng)),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        let batches = vec![Tensor::randn([2, 1, 2, 2], 1.0, &mut rng)];
        match quantize_sequential(&mut net, &batches) {
            Err(QuantError::LinearNotTerminal) => {}
            other => panic!("expected LinearNotTerminal, got {other:?}"),
        }
    }
}
