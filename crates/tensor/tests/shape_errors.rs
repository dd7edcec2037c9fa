//! Shape-error paths of the matmul and convolution kernels: every
//! mismatched-dimension case must fail loudly (a typed `Err` from
//! constructors, a panic with a diagnostic message from the hot-path
//! kernels) rather than computing garbage. Complements the property suite
//! in `properties.rs`, which only exercises well-formed shapes.

use mea_tensor::conv::{col2im, im2col, ConvGeom};
use mea_tensor::{matmul, Tensor, TensorError};

// ---- constructor / reshape errors (typed Results) ----

#[test]
fn from_vec_rejects_length_mismatch() {
    let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
    assert_eq!(err, TensorError::LengthMismatch { expected: 6, got: 5 });
}

#[test]
fn from_vec_rejects_zero_dimension() {
    assert!(matches!(Tensor::from_vec(vec![], &[0, 3]), Err(TensorError::InvalidShape { .. })));
}

#[test]
fn from_vec_rejects_empty_shape() {
    assert!(matches!(Tensor::from_vec(vec![1.0], &[]), Err(TensorError::InvalidShape { .. })));
}

#[test]
fn reshape_rejects_element_count_change() {
    let t = Tensor::zeros([2, 3]);
    assert_eq!(t.reshape(&[7]).unwrap_err(), TensorError::LengthMismatch { expected: 7, got: 6 });
}

// ---- matmul family (panicking hot paths) ----

#[test]
#[should_panic(expected = "must be a matrix")]
fn matmul_rejects_non_matrix_lhs() {
    let a = Tensor::zeros([2, 3, 4]);
    let b = Tensor::zeros([4, 2]);
    matmul::matmul(&a, &b);
}

#[test]
#[should_panic(expected = "must be a matrix")]
fn matmul_rejects_vector_rhs() {
    let a = Tensor::zeros([2, 3]);
    let b = Tensor::zeros([3]);
    matmul::matmul(&a, &b);
}

#[test]
#[should_panic(expected = "inner dimension mismatch")]
fn matmul_rejects_inner_dim_mismatch() {
    matmul::matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
}

#[test]
#[should_panic(expected = "matmul_a_bt shared dimension mismatch")]
fn matmul_a_bt_rejects_shared_dim_mismatch() {
    // A: [m, k], B: [n, k'] with k != k'.
    matmul::matmul_a_bt(&Tensor::zeros([2, 3]), &Tensor::zeros([5, 4]));
}

#[test]
#[should_panic(expected = "matmul_at_b shared dimension mismatch")]
fn matmul_at_b_rejects_shared_dim_mismatch() {
    // A: [k, m], B: [k', n] with k != k'.
    matmul::matmul_at_b(&Tensor::zeros([3, 2]), &Tensor::zeros([4, 5]));
}

// ---- convolution geometry (panicking hot paths) ----

#[test]
#[should_panic(expected = "larger than padded input")]
fn out_hw_rejects_kernel_larger_than_padded_input() {
    // 5x5 kernel over a 3x3 input with pad 0 cannot produce any output.
    ConvGeom::square(1, 5, 1, 0).out_hw(3, 3);
}

#[test]
fn out_hw_accepts_kernel_exactly_fitting_padded_input() {
    // Padding can make an otherwise-too-large kernel legal; boundary case.
    assert_eq!(ConvGeom::square(1, 5, 1, 1).out_hw(3, 3), (1, 1));
}

#[test]
#[should_panic(expected = "image length mismatch")]
fn im2col_rejects_wrong_image_length() {
    let geom = ConvGeom::square(2, 3, 1, 1);
    // 2 channels of 4x4 need 32 values; pass one channel's worth.
    im2col(&[0.0; 16], 4, 4, &geom);
}

#[test]
#[should_panic(expected = "col2im shape mismatch")]
fn col2im_rejects_wrong_cols_shape() {
    let geom = ConvGeom::square(1, 3, 1, 1);
    let cols = Tensor::zeros([9, 99]); // 4x4 input needs [9, 16]
    let mut grad = vec![0.0; 16];
    col2im(cols.as_slice(), 4, 4, &geom, &mut grad);
}

#[test]
#[should_panic(expected = "image gradient length mismatch")]
fn col2im_rejects_wrong_grad_length() {
    let geom = ConvGeom::square(1, 3, 1, 1);
    let cols = Tensor::zeros([9, 16]);
    let mut grad = vec![0.0; 5]; // needs 16
    col2im(cols.as_slice(), 4, 4, &geom, &mut grad);
}

// ---- elementwise shape agreement ----

#[test]
#[should_panic(expected = "shape mismatch")]
fn add_assign_rejects_shape_mismatch() {
    let mut a = Tensor::zeros([2, 3]);
    a.add_assign(&Tensor::zeros([3, 2]));
}
