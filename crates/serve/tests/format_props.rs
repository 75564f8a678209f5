//! Property tests for the shortest-round-trip float formatter behind
//! every wire encoder (ISSUE satellite c): any finite `f64` — drawn as
//! raw IEEE bit patterns, so subnormals, extreme exponents and negative
//! zero are all on the table — must print to a string that parses back
//! to the *bitwise identical* value, both through the vendored `ryu`
//! buffer directly and through the `serde_json::write_f64` path the
//! NDJSON encoder uses.

use proptest::prelude::*;

/// Formats through the exact code path NDJSON encoding uses and parses
/// back with the standard library.
fn json_round_trip(v: f64) -> f64 {
    let mut out = Vec::new();
    serde_json::write_f64(v, &mut out);
    std::str::from_utf8(&out)
        .expect("formatter output is ASCII")
        .parse()
        .expect("formatter output parses as f64")
}

proptest! {
    /// Raw bit patterns: the whole representable range, including
    /// subnormals and -0.0. Non-finite patterns are skipped (the wire
    /// maps them to `null` by design, tested separately below).
    #[test]
    fn random_bit_patterns_round_trip_bitwise(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        if !v.is_finite() {
            return;
        }
        let mut buf = ryu::Buffer::new();
        let s = buf.format_finite(v);
        let back: f64 = s.parse().expect("ryu output parses as f64");
        prop_assert_eq!(back.to_bits(), v.to_bits(), "{} -> {}", v, s);
        prop_assert_eq!(json_round_trip(v).to_bits(), v.to_bits());
    }

    /// Physically plausible magnitudes (circuit delays, conductances,
    /// moment coefficients span roughly these decades), denser than the
    /// uniform-bit sweep around the values the server actually emits.
    #[test]
    fn engineering_range_round_trips_bitwise(
        mantissa in -1.0..1.0f64,
        log_scale in -30.0..30.0f64,
    ) {
        let v = mantissa * 10f64.powf(log_scale);
        let mut buf = ryu::Buffer::new();
        let back: f64 = buf.format_finite(v).parse().expect("parses");
        prop_assert_eq!(back.to_bits(), v.to_bits());
        prop_assert_eq!(json_round_trip(v).to_bits(), v.to_bits());
    }
}

/// The wire deliberately has no NaN/Inf literal: those encode as `null`.
#[test]
fn non_finite_values_encode_as_null() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = Vec::new();
        serde_json::write_f64(v, &mut out);
        assert_eq!(out, b"null");
    }
}

/// Boundary values that shortest-round-trip formatters historically get
/// wrong: keep them pinned outside the random sweep.
#[test]
fn boundary_values_round_trip_bitwise() {
    for v in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,                     // smallest normal
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0 + f64::EPSILON,
        5e-324,
        1e23, // classic Grisu boundary case (9.999999999999999e22 as an f64)
        1.7976931348623157e308,
    ] {
        let mut buf = ryu::Buffer::new();
        let s = buf.format_finite(v);
        let back: f64 = s.parse().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} -> {s}");
    }
}
