//! Counter sets declared once.
//!
//! Every counter struct the simulator reports is declared through
//! [`counters!`](crate::counters!): one field list yields the struct, [`Counters::FIELDS`],
//! `since`, the JSON writer and its exact inverse, so adding a counter is
//! one line in its declaration. Fields sit in `cumulative { … }` or
//! `gauge { … }` sections, in JSON key order (sections may repeat):
//! `since(earlier)` subtracts cumulative fields and keeps the later value
//! of gauges. The section is also the Prometheus `# TYPE` (`counter` /
//! `gauge`) and the doc comment the `# HELP` text. Field types drive the
//! codec through [`Field`]; those that can be differenced implement
//! [`Cumulative`].

use std::fmt;

use crate::json::{self, JsonObject, JsonValue};

/// How a field evolves over a run: its section in [`counters!`](crate::counters!).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows; `since` subtracts it.
    Cumulative,
    /// An instantaneous reading; `since` keeps the later value.
    Gauge,
}

/// A scalar field's value: one CSV cell or one metric sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// An integer.
    Int(u64),
    /// A float.
    Float(f64),
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => write!(f, "{v}"),
        }
    }
}

/// A value that did not parse as its declared field type: the dotted
/// path to it and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    path: String,
    problem: String,
}

impl FieldError {
    /// An error about the value at hand; [`Self::within`] adds the path.
    fn new(problem: impl Into<String>) -> Self {
        FieldError {
            path: String::new(),
            problem: problem.into(),
        }
    }

    /// The same error, seen from the object holding it under `key`.
    #[must_use]
    fn within(mut self, key: &str) -> Self {
        self.path = if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{key}.{}", self.path)
        };
        self
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field '{}' {}", self.path, self.problem)
    }
}

/// A type that can be a field of a [`counters!`](crate::counters!) struct.
pub trait Field: Sized {
    /// The value as JSON text.
    fn json(&self) -> String;

    /// The exact inverse of [`Field::json`].
    ///
    /// # Errors
    ///
    /// Returns what is wrong with `v`, naming nested fields by path.
    fn from_json(v: &JsonValue) -> Result<Self, FieldError>;

    /// The value as a CSV cell or metric sample, when it is a scalar.
    fn scalar(&self) -> Option<Scalar> {
        None
    }
}

/// A field type that may sit in a `cumulative` section.
pub trait Cumulative {
    /// The change since `earlier`, an earlier reading.
    #[must_use]
    fn since(&self, earlier: &Self) -> Self;

    /// Add a change: `a.accumulate(&b.since(&a))` turns `a` into `b`.
    fn accumulate(&mut self, delta: &Self);
}

/// The field list of a [`counters!`](crate::counters!) struct, for code that handles any
/// counter set (exporters, the Prometheus renderer, tests).
pub trait Counters: Field + Cumulative {
    /// Field names, in declaration and JSON key order.
    const FIELDS: &'static [&'static str];
    /// Each field's kind, aligned with [`Counters::FIELDS`].
    const KINDS: &'static [Kind];
    /// Each field's doc comment, aligned with [`Counters::FIELDS`].
    const HELP: &'static [&'static str];

    /// Each field's [`Field::scalar`], aligned with [`Counters::FIELDS`].
    fn scalars(&self) -> Vec<Option<Scalar>>;
}

/// Parse the field `key` of the JSON object `v`.
///
/// # Errors
///
/// Returns a [`FieldError`] whose path starts at `key`.
pub fn read_field<T: Field>(v: &JsonValue, key: &str) -> Result<T, FieldError> {
    match v.get(key) {
        Some(raw) => T::from_json(raw),
        None => Err(FieldError::new("is missing")),
    }
    .map_err(|e| e.within(key))
}

/// [`read_field`] for a key that may be absent.
///
/// # Errors
///
/// Returns a [`FieldError`] whose path starts at `key`.
pub fn read_optional<T: Field>(v: &JsonValue, key: &str) -> Result<Option<T>, FieldError> {
    v.get(key).map(|_| read_field(v, key)).transpose()
}

/// Append the field `key` to `o` when `value` is present (the writer
/// side of [`read_optional`]).
pub fn write_optional<T: Field>(o: &mut JsonObject, key: &str, value: &Option<T>) {
    if let Some(v) = value {
        o.field_raw(key, &v.json());
    }
}

/// Render the scalar fields of `c` as a Prometheus text exposition
/// (format 0.0.4): one `# HELP` / `# TYPE` / sample triplet per field,
/// names prefixed with `prefix`.
pub fn prometheus<C: Counters>(c: &C, prefix: &str) -> String {
    let mut out = String::new();
    let fields = C::FIELDS.iter().zip(C::KINDS).zip(C::HELP);
    for (((name, kind), help), value) in fields.zip(c.scalars()) {
        let kind = match kind {
            Kind::Cumulative => "counter",
            Kind::Gauge => "gauge",
        };
        if let Some(value) = value {
            let help = help.trim();
            out.push_str(&format!(
                "# HELP {prefix}{name} {help}\n# TYPE {prefix}{name} {kind}\n{prefix}{name} {value}\n"
            ));
        }
    }
    out
}

impl Field for u64 {
    fn json(&self) -> String {
        self.to_string()
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        v.as_u64()
            .ok_or_else(|| FieldError::new("is not an unsigned integer"))
    }
    fn scalar(&self) -> Option<Scalar> {
        Some(Scalar::Int(*self))
    }
}

impl Cumulative for u64 {
    fn since(&self, earlier: &Self) -> Self {
        self - earlier
    }
    fn accumulate(&mut self, delta: &Self) {
        *self += delta;
    }
}

impl Field for u32 {
    fn json(&self) -> String {
        self.to_string()
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        let wide = u64::from_json(v)?;
        u32::try_from(wide)
            .map_err(|_| FieldError::new(format!("is out of range for u32 ({wide})")))
    }
    fn scalar(&self) -> Option<Scalar> {
        Some(Scalar::Int(u64::from(*self)))
    }
}

impl Field for f64 {
    fn json(&self) -> String {
        json::number(*self)
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        v.as_f64().ok_or_else(|| FieldError::new("is not a number"))
    }
    fn scalar(&self) -> Option<Scalar> {
        Some(Scalar::Float(*self))
    }
}

impl Field for bool {
    fn json(&self) -> String {
        self.to_string()
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        v.as_bool().ok_or_else(|| FieldError::new("is not a bool"))
    }
}

impl Field for String {
    fn json(&self) -> String {
        format!("\"{}\"", json::escape(self))
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| FieldError::new("is not a string"))
    }
}

/// `null` is `None`, so an optional key may be absent or null.
impl<T: Field> Field for Option<T> {
    fn json(&self) -> String {
        self.as_ref()
            .map_or_else(|| "null".to_string(), Field::json)
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn json(&self) -> String {
        json::array(self.iter().map(Field::json))
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        v.as_array()
            .ok_or_else(|| FieldError::new("is not an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.within(&i.to_string())))
            .collect()
    }
}

impl<const N: usize> Field for [u64; N] {
    fn json(&self) -> String {
        json::array(self.iter().map(Field::json))
    }
    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        let items = Vec::<u64>::from_json(v)?;
        let len = items.len();
        (items.try_into()).map_err(|_| FieldError::new(format!("has {len} entries, expected {N}")))
    }
}

impl<const N: usize> Cumulative for [u64; N] {
    fn since(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i] - earlier[i])
    }
    fn accumulate(&mut self, delta: &Self) {
        for (a, d) in self.iter_mut().zip(delta) {
            *a += d;
        }
    }
}

/// Declare a counter set once (see the [module docs](mod@crate::counters)).
/// The struct keeps its attributes and doc comments; every field is
/// `pub`. Generated: `since`, `write_json`, `to_json`, `from_json_value`,
/// and the [`Field`], [`Cumulative`] and [`Counters`] impls.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $kind:ident {
                    $( $(#[doc = $doc:literal])* $field:ident : $ty:ty ),* $(,)?
                }
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($( $(#[doc = $doc])* pub $field: $ty, )*)*
        }

        impl $name {
            /// The change since `earlier`: cumulative fields are
            /// subtracted, gauges keep this (later) reading.
            #[must_use]
            pub fn since(&self, earlier: &Self) -> Self {
                $name {
                    $($( $field: $crate::__counter!(since $kind self.$field, earlier.$field), )*)*
                }
            }

            /// Append every field to `o`, in declaration order.
            pub fn write_json(&self, o: &mut $crate::json::JsonObject) {
                $($( o.field_raw(stringify!($field), &$crate::counters::Field::json(&self.$field)); )*)*
            }

            /// Render as one JSON object.
            pub fn to_json(&self) -> String {
                let mut o = $crate::json::JsonObject::new();
                self.write_json(&mut o);
                o.finish()
            }

            /// Rebuild from a parsed JSON object: the exact inverse of
            /// [`Self::to_json`]. Keys beyond the declared fields are
            /// ignored.
            ///
            /// # Errors
            ///
            /// Returns a message naming the first missing or mistyped field.
            pub fn from_json_value(v: &$crate::json::JsonValue) -> Result<Self, String> {
                <Self as $crate::counters::Field>::from_json(v)
                    .map_err(|e| format!("{}: {e}", stringify!($name)))
            }
        }

        impl $crate::counters::Field for $name {
            fn json(&self) -> String {
                self.to_json()
            }

            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::counters::FieldError> {
                Ok($name {
                    $($( $field: $crate::counters::read_field(v, stringify!($field))?, )*)*
                })
            }
        }

        impl $crate::counters::Cumulative for $name {
            fn since(&self, earlier: &Self) -> Self {
                $name::since(self, earlier)
            }

            fn accumulate(&mut self, delta: &Self) {
                $($( $crate::__counter!(accumulate $kind self.$field, delta.$field); )*)*
            }
        }

        impl $crate::counters::Counters for $name {
            const FIELDS: &'static [&'static str] = &[$($( stringify!($field), )*)*];
            const KINDS: &'static [$crate::counters::Kind] =
                &[$($( $crate::__counter!(kind $kind $field), )*)*];
            const HELP: &'static [&'static str] = &[$($( concat!($($doc,)* ""), )*)*];

            fn scalars(&self) -> Vec<Option<$crate::counters::Scalar>> {
                vec![$($( $crate::counters::Field::scalar(&self.$field), )*)*]
            }
        }
    };
}

/// What a section keyword means for one field.
#[doc(hidden)]
#[macro_export]
macro_rules! __counter {
    (kind cumulative $field:ident) => {
        $crate::counters::Kind::Cumulative
    };
    (kind gauge $field:ident) => {
        $crate::counters::Kind::Gauge
    };
    (since cumulative $later:expr, $earlier:expr) => {
        $crate::counters::Cumulative::since(&$later, &$earlier)
    };
    (since gauge $later:expr, $earlier:expr) => {
        ::core::clone::Clone::clone(&$later)
    };
    (accumulate cumulative $acc:expr, $delta:expr) => {
        $crate::counters::Cumulative::accumulate(&mut $acc, &$delta)
    };
    (accumulate gauge $acc:expr, $delta:expr) => {
        $acc = ::core::clone::Clone::clone(&$delta)
    };
}
