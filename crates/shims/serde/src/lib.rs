//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors a minimal serde-compatible surface: the `Serialize` /
//! `Deserialize` traits, derive macros for named-field structs, tuple
//! structs and unit/newtype enums, and impls for the std types the
//! workspace serializes. `serde_json` (the sibling shim) provides the JSON
//! text format.
//!
//! Like serde, the traits stream: [`Serialize`] drives a [`Serializer`]
//! through the JSON data model (scalars, arrays, objects with ordered keys)
//! and [`Deserialize`] pulls typed values from a [`Deserializer`], so no
//! intermediate tree is built on either side. [`Value`] is an owned tree
//! for callers that want one; it is just one more type with both impls.
//!
//! The surface intentionally covers exactly what this workspace uses and
//! panics (at derive time) with a clear message where real serde would
//! support more.

pub use serde_derive::{Deserialize, Serialize};

/// An owned, ordered JSON-like value tree.
///
/// Object keys keep insertion order so serialization is deterministic and
/// golden tests are byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent, leading `-`).
    Int(i64),
    /// Unsigned integer (JSON number without fraction/exponent).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Unsigned integer, if this is a non-negative integer (or an integral
    /// float, which JSON cannot distinguish from an integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Signed integer, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// The kind of the next value in a [`Deserializer`], for types that accept
/// more than one (`Value`, enums with unit and newtype variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// Any number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A sink for the data model: scalars, arrays and objects with ordered
/// keys. Writing cannot fail.
///
/// An array is `begin_array`, then `element` before each item, then
/// `end_array`; an object is `begin_object`, then `key` before each value,
/// then `end_object`.
pub trait Serializer {
    /// Writes `null`.
    fn write_null(&mut self);
    /// Writes a boolean.
    fn write_bool(&mut self, v: bool);
    /// Writes an unsigned integer.
    fn write_u64(&mut self, v: u64);
    /// Writes a signed integer.
    fn write_i64(&mut self, v: i64);
    /// Writes a float (a non-finite one as `null`, like serde_json).
    fn write_f64(&mut self, v: f64);
    /// Writes a string.
    fn write_str(&mut self, v: &str);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Starts the next array item.
    fn element(&mut self);
    /// Closes the innermost array.
    fn end_array(&mut self);
    /// Opens an object.
    fn begin_object(&mut self);
    /// Writes the key of the next object member.
    fn key(&mut self, key: &str);
    /// Closes the innermost object.
    fn end_object(&mut self);
}

/// A source of the data model, read front to back.
///
/// An array is `begin_array`, then one value per `next_element() == true`;
/// an object is `begin_object`, then one value per `next_key() == Some(_)`.
pub trait Deserializer {
    /// The kind of the next value, which is not consumed.
    fn peek(&mut self) -> Result<Kind, DeError>;
    /// Consumes a `null` if one is next; returns whether it did.
    fn read_null(&mut self) -> Result<bool, DeError>;
    /// Reads a boolean.
    fn read_bool(&mut self) -> Result<bool, DeError>;
    /// Reads a number as [`Value::UInt`], [`Value::Int`] (negative
    /// integers) or [`Value::Float`] (with a fraction or exponent, or out
    /// of integer range).
    fn read_number(&mut self) -> Result<Value, DeError>;
    /// Reads a string; the slice lives until the next call.
    fn read_str(&mut self) -> Result<&str, DeError>;
    /// Opens an array.
    fn begin_array(&mut self) -> Result<(), DeError>;
    /// True if another item follows (read it next); false consumes the
    /// array's end.
    fn next_element(&mut self) -> Result<bool, DeError>;
    /// Opens an object.
    fn begin_object(&mut self) -> Result<(), DeError>;
    /// The next member's key (read its value next), or `None` after
    /// consuming the object's end.
    fn next_key(&mut self) -> Result<Option<&str>, DeError>;

    /// Reads and discards one well-formed value.
    fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            Kind::Null => self.read_null().map(drop),
            Kind::Bool => self.read_bool().map(drop),
            Kind::Number => self.read_number().map(drop),
            Kind::Str => self.read_str().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }
}

/// Types that can write themselves to a [`Serializer`].
pub trait Serialize {
    /// Writes `self`.
    fn serialize<S: Serializer>(&self, s: &mut S);
}

/// Types readable from a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Reads one value; errors carry a path-free message.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError>;

    /// The value of a struct field whose key is absent, if absence is a
    /// value of this type (`Option` reads it as `None`); otherwise the
    /// derive reports the missing field.
    fn missing() -> Option<Self> {
        None
    }
}

/// Reads the value of struct field `key`, naming the field in any error.
/// The derive's per-field read.
pub fn field<T: Deserialize, D: Deserializer>(d: &mut D, key: &str) -> Result<T, DeError> {
    T::deserialize(d).map_err(|e| DeError::new(format!("field `{key}`: {e}")))
}

/// The value of required struct field `key` when its key is absent:
/// [`Deserialize::missing`], or an error naming the field.
pub fn missing_field<T: Deserialize>(key: &str) -> Result<T, DeError> {
    T::missing().ok_or_else(|| DeError::new(format!("missing field `{key}`")))
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.write_null(),
            Value::Bool(b) => s.write_bool(*b),
            Value::Int(i) => s.write_i64(*i),
            Value::UInt(u) => s.write_u64(*u),
            Value::Float(f) => s.write_f64(*f),
            Value::Str(text) => s.write_str(text),
            Value::Array(items) => items.serialize(s),
            Value::Object(fields) => {
                s.begin_object();
                for (key, value) in fields {
                    s.key(key);
                    value.serialize(s);
                }
                s.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        Ok(match d.peek()? {
            Kind::Null => {
                d.read_null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(d.read_bool()?),
            Kind::Number => d.read_number()?,
            Kind::Str => Value::Str(d.read_str()?.to_string()),
            Kind::Array => Value::Array(Vec::deserialize(d)?),
            Kind::Object => {
                d.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = d.next_key()? {
                    let key = key.to_string();
                    fields.push((key, Value::deserialize(d)?));
                }
                Value::Object(fields)
            }
        })
    }

    fn missing() -> Option<Self> {
        Some(Value::Null)
    }
}

macro_rules! impl_float {
    ($t:ty) => {
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.write_f64(f64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                d.read_number()?
                    .as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| DeError::new(concat!("expected ", stringify!($t))))
            }
        }
    };
}

impl_float!(f32);
impl_float!(f64);

macro_rules! impl_uint {
    ($t:ty) => {
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.write_u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                d.read_number()?
                    .as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| DeError::new(concat!("expected ", stringify!($t))))
            }
        }
    };
}

impl_uint!(u8);
impl_uint!(u16);
impl_uint!(u32);
impl_uint!(u64);
impl_uint!(usize);

macro_rules! impl_int {
    ($t:ty) => {
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.write_i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                d.read_number()?
                    .as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| DeError::new(concat!("expected ", stringify!($t))))
            }
        }
    };
}

impl_int!(i8);
impl_int!(i16);
impl_int!(i32);
impl_int!(i64);
impl_int!(isize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.write_bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        d.read_bool()
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.write_str(self);
    }
}

impl Deserialize for String {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        d.read_str().map(str::to_string)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.write_str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_array();
        for item in self {
            s.element();
            item.serialize(s);
        }
        s.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        d.begin_array()?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(x) => x.serialize(s),
            None => s.write_null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        if d.read_null()? {
            Ok(None)
        } else {
            T::deserialize(d).map(Some)
        }
    }

    fn missing() -> Option<Self> {
        Some(None)
    }
}

impl<const N: usize, T: Serialize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<const N: usize, T: Deserialize + Copy + Default> Deserialize for [T; N] {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        let wrong_length = || DeError::new(format!("expected array of length {N}"));
        d.begin_array()?;
        let mut out = [T::default(); N];
        for slot in &mut out {
            if !d.next_element()? {
                return Err(wrong_length());
            }
            *slot = T::deserialize(d)?;
        }
        if d.next_element()? {
            return Err(wrong_length());
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.begin_array();
                $(
                    s.element();
                    self.$idx.serialize(s);
                )+
                s.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                let expected = [$($idx),+].len();
                let wrong_length =
                    || DeError::new(format!("expected tuple of length {expected}"));
                d.begin_array()?;
                let out = ($(
                    {
                        if !d.next_element()? {
                            return Err(wrong_length());
                        }
                        $name::deserialize(d)?
                    },
                )+);
                if d.next_element()? {
                    return Err(wrong_length());
                }
                Ok(out)
            }
        }
    };
}

impl_tuple!(T0: 0);
impl_tuple!(T0: 0, T1: 1);
impl_tuple!(T0: 0, T1: 1, T2: 2);
impl_tuple!(T0: 0, T1: 1, T2: 2, T3: 3);

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the data model, as recorded by [`Tape`].
    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        /// A scalar (`Null`, `Bool`, a number or `Str`).
        Scalar(Value),
        Array,
        ArrayEnd,
        Object,
        Key(String),
        ObjectEnd,
    }

    /// Records the data model as a flat event list and replays it.
    #[derive(Default)]
    struct Tape {
        events: Vec<Event>,
        pos: usize,
    }

    impl Tape {
        fn record<T: Serialize>(value: &T) -> Self {
            let mut tape = Tape::default();
            value.serialize(&mut tape);
            tape
        }

        fn next(&mut self) -> Result<&Event, DeError> {
            self.pos += 1;
            self.events.get(self.pos - 1).ok_or(DeError::new("end of tape"))
        }

        /// Consumes the next event if it is `e`.
        fn take(&mut self, e: &Event) -> bool {
            let hit = self.events.get(self.pos) == Some(e);
            self.pos += usize::from(hit);
            hit
        }

        fn scalar(&mut self) -> Result<&Value, DeError> {
            match self.next()? {
                Event::Scalar(v) => Ok(v),
                other => Err(DeError::new(format!("expected a scalar, found {other:?}"))),
            }
        }

        fn expect(&mut self, e: &Event) -> Result<(), DeError> {
            if self.take(e) {
                Ok(())
            } else {
                Err(DeError::new(format!("expected {e:?}")))
            }
        }
    }

    impl Serializer for Tape {
        fn write_null(&mut self) {
            self.events.push(Event::Scalar(Value::Null));
        }
        fn write_bool(&mut self, v: bool) {
            self.events.push(Event::Scalar(Value::Bool(v)));
        }
        fn write_u64(&mut self, v: u64) {
            self.events.push(Event::Scalar(Value::UInt(v)));
        }
        fn write_i64(&mut self, v: i64) {
            self.events.push(Event::Scalar(Value::Int(v)));
        }
        fn write_f64(&mut self, v: f64) {
            self.events.push(Event::Scalar(Value::Float(v)));
        }
        fn write_str(&mut self, v: &str) {
            self.events.push(Event::Scalar(Value::Str(v.into())));
        }
        fn begin_array(&mut self) {
            self.events.push(Event::Array);
        }
        fn element(&mut self) {}
        fn end_array(&mut self) {
            self.events.push(Event::ArrayEnd);
        }
        fn begin_object(&mut self) {
            self.events.push(Event::Object);
        }
        fn key(&mut self, key: &str) {
            self.events.push(Event::Key(key.into()));
        }
        fn end_object(&mut self) {
            self.events.push(Event::ObjectEnd);
        }
    }

    impl Deserializer for Tape {
        fn peek(&mut self) -> Result<Kind, DeError> {
            Ok(match self.events.get(self.pos) {
                Some(Event::Scalar(Value::Null)) => Kind::Null,
                Some(Event::Scalar(Value::Bool(_))) => Kind::Bool,
                Some(Event::Scalar(Value::Str(_))) => Kind::Str,
                Some(Event::Scalar(_)) => Kind::Number,
                Some(Event::Array) => Kind::Array,
                Some(Event::Object) => Kind::Object,
                other => return Err(DeError::new(format!("no value next: {other:?}"))),
            })
        }
        fn read_null(&mut self) -> Result<bool, DeError> {
            Ok(self.take(&Event::Scalar(Value::Null)))
        }
        fn read_bool(&mut self) -> Result<bool, DeError> {
            self.scalar()?.as_bool().ok_or(DeError::new("expected bool"))
        }
        fn read_number(&mut self) -> Result<Value, DeError> {
            match self.scalar()? {
                n @ (Value::Int(_) | Value::UInt(_) | Value::Float(_)) => Ok(n.clone()),
                _ => Err(DeError::new("expected number")),
            }
        }
        fn read_str(&mut self) -> Result<&str, DeError> {
            self.scalar()?.as_str().ok_or(DeError::new("expected string"))
        }
        fn begin_array(&mut self) -> Result<(), DeError> {
            self.expect(&Event::Array)
        }
        fn next_element(&mut self) -> Result<bool, DeError> {
            Ok(!self.take(&Event::ArrayEnd))
        }
        fn begin_object(&mut self) -> Result<(), DeError> {
            self.expect(&Event::Object)
        }
        fn next_key(&mut self) -> Result<Option<&str>, DeError> {
            if self.take(&Event::ObjectEnd) {
                return Ok(None);
            }
            match self.next()? {
                Event::Key(k) => Ok(Some(k)),
                other => Err(DeError::new(format!("expected a key, found {other:?}"))),
            }
        }
    }

    fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
        let mut tape = Tape::record(value);
        let back = T::deserialize(&mut tape).unwrap();
        assert_eq!(tape.pos, tape.events.len(), "the whole tape is read");
        back
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&1.5_f64), 1.5);
        assert_eq!(roundtrip(&7_u32), 7);
        assert_eq!(roundtrip(&-3_i64), -3);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&"hi".to_string()), "hi");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1.0_f64, 2.0, 3.0];
        assert_eq!(roundtrip(&v), v);
        let o: Option<u32> = None;
        assert_eq!(roundtrip(&o), None);
        let t = (1_u32, 2.5_f64);
        assert_eq!(roundtrip(&t), t);
        let nested = vec![(Some(vec![[1_u8, 2], [3, 4]]), "x".to_string()), (None, String::new())];
        assert_eq!(roundtrip(&nested), nested);
        let tree = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Null, Value::Int(-1), Value::Float(0.5)])),
            ("b".into(), Value::Object(vec![])),
        ]);
        assert_eq!(roundtrip(&tree), tree);
    }

    #[test]
    fn missing_field_reports_name() {
        let err = missing_field::<u32>("b").unwrap_err();
        assert!(err.to_string().contains("missing field `b`"));
        // Option fields tolerate absence
        assert_eq!(missing_field::<Option<u32>>("b").unwrap(), None);
        assert_eq!(missing_field::<Value>("b").unwrap(), Value::Null);
    }

    #[test]
    fn integral_floats_accepted_as_integers() {
        assert_eq!(u64::deserialize(&mut Tape::record(&42.0_f64)).unwrap(), 42);
        assert!(u64::deserialize(&mut Tape::record(&1.5_f64)).is_err());
        assert_eq!(f64::deserialize(&mut Tape::record(&7_u8)).unwrap(), 7.0);
    }
}
