//! One declarative schema per wire message: both JSON directions from one
//! field list.
//!
//! Every message on the two network planes (the `dt-serve` planner
//! protocol and the `dt-preprocess` producer/consumer protocol), and the
//! checkpoint file, is a [`WireJson`] type. Its codec is not written by
//! hand: [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) generate `to_json` and `from_json`
//! from the field names alone, and each field's JSON form follows from its
//! Rust type through the impls here. A field is named once, so the two
//! directions cannot drift, and every decode error reads the same way:
//! `Type missing field`, `Type.field: <why>`, `Vec` elements as `[i]: <why>`.
//!
//! ```
//! use dt_simengine::schema::WireJson;
//! use dt_simengine::{wire_enum, wire_struct, Json};
//!
//! #[derive(Debug, PartialEq)]
//! struct Spec { name: String, seed: u64, sp: bool }
//! wire_struct!(Spec { name, seed, sp = false });
//!
//! #[derive(Debug, PartialEq)]
//! enum Msg { Stop, Run { spec: Spec, steps: u32 }, Echo(Vec<u32>) }
//! wire_enum!(Msg { Stop, Run { spec, steps }, Echo(Vec<u32>) });
//!
//! let run = Msg::Run { spec: Spec { name: "a".into(), seed: u64::MAX, sp: true }, steps: 3 };
//! let text = run.to_json().to_string();
//! assert_eq!(text, r#"{"Run":{"spec":{"name":"a","seed":"18446744073709551615","sp":true},"steps":3}}"#);
//! assert_eq!(Msg::from_json(&Json::parse(&text).unwrap()), Ok(run));
//! assert_eq!(Msg::Stop.to_json().to_string(), r#""Stop""#);
//! // `sp` was declared with a default, so an old encoding without it decodes.
//! let old = Json::parse(r#"{"name":"b","seed":1}"#).unwrap();
//! assert_eq!(Spec::from_json(&old).map(|s| s.sp), Ok(false));
//! // A tagged enum decodes only from a variant name or a one-key object.
//! let two = Json::parse(r#"{"Echo":[1],"Run":{}}"#).unwrap();
//! assert!(Msg::from_json(&two).is_err());
//! ```

use crate::json::Json;

/// A value with a JSON form: a wire message, or one of its fields.
///
/// Field types map to JSON as follows:
/// - `u32` and `u64` are numbers, written by [`Json::num_u64`], so a `u64`
///   of 2^53 or more travels as its decimal string and stays exact; a
///   `u32` decodes only from a value that fits;
/// - `f64` is a number. A non-finite `f64` encodes as `null` (JSON has no
///   NaN or infinity) and is rejected on decode;
/// - `bool` and `String` are themselves, `Vec<T>` is an array;
/// - a message is an object ([`wire_struct!`](crate::wire_struct)) or an
///   externally tagged enum ([`wire_enum!`](crate::wire_enum)).
pub trait WireJson: Sized {
    /// Encode into a JSON value.
    fn to_json(&self) -> Json;
    /// Decode from a JSON value.
    fn from_json(value: &Json) -> Result<Self, String>;
}

impl WireJson for u32 {
    fn to_json(&self) -> Json {
        Json::num_u64(u64::from(*self))
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value.as_u32().ok_or_else(|| "not a u32".into())
    }
}

impl WireJson for u64 {
    fn to_json(&self) -> Json {
        Json::num_u64(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value.as_u64().ok_or_else(|| "not a u64".into())
    }
}

impl WireJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value.as_f64().ok_or_else(|| "not a number".into())
    }
}

impl WireJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "not a bool".into())
    }
}

impl WireJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".into())
    }
}

impl<T: WireJson> WireJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(value: &Json) -> Result<Self, String> {
        let items = value.as_array().ok_or("not an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// Decode field `key` of the object `value` of type `ty`; a missing key
/// decodes as `absent` when there is one. Called by the generated codecs.
#[doc(hidden)]
pub fn field<T: WireJson>(
    value: &Json,
    ty: &str,
    key: &str,
    absent: Option<T>,
) -> Result<T, String> {
    match (value.get(key), absent) {
        (Some(v), _) => T::from_json(v).map_err(|e| format!("{ty}.{key}: {e}")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("{ty} missing {key}")),
    }
}

/// Split an externally tagged enum value of type `ty` into its variant
/// name and body: a string is a unit variant, an object of exactly one key
/// a variant with a body. Anything else is an error, so no decoder ever
/// picks one of several keys. Called by the generated codecs.
#[doc(hidden)]
pub fn variant<'a>(value: &'a Json, ty: &str) -> Result<(&'a str, Option<&'a Json>), String> {
    match value {
        Json::Str(tag) => Ok((tag.as_str(), None)),
        Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, Some(&fields[0].1))),
        _ => Err(format!(
            "{ty} is neither a variant name nor a one-key object"
        )),
    }
}

/// Generate [`WireJson`] for a struct from its field names: the struct
/// encodes as an object with one key per field, in the listed order.
///
/// `field = expr` makes `expr` the value of a key the JSON lacks (a field
/// added after the format shipped). A trailing `check path` runs
/// `path(&decoded) -> Result<(), String>` on every decoded value, for a
/// rule that spans fields.
#[macro_export]
macro_rules! wire_struct {
    (@absent) => { None };
    (@absent $default:expr) => { Some($default) };
    ($ty:ident { $($f:ident $(= $default:expr)?),* $(,)? } $(check $check:path)?) => {
        impl $crate::schema::WireJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $((stringify!($f), $crate::schema::WireJson::to_json(&self.$f))),*
                ])
            }
            fn from_json(value: &$crate::json::Json) -> Result<Self, String> {
                let decoded = $ty {
                    $($f: $crate::schema::field(
                        value,
                        stringify!($ty),
                        stringify!($f),
                        $crate::wire_struct!(@absent $($default)?),
                    )?,)*
                };
                $($check(&decoded)?;)?
                Ok(decoded)
            }
        }
    };
}

/// Generate [`WireJson`] for an externally tagged enum from its variant
/// list: a unit variant `V` encodes as the string `"V"`, a struct variant
/// `V { a, b }` as `{"V":{"a":…,"b":…}}`, and a newtype variant `V(T)` as
/// `{"V":…}`. Decoding accepts only those forms: a variant name, or an
/// object of exactly one key naming a variant.
#[macro_export]
macro_rules! wire_enum {
    (@pat $v:ident) => { Self::$v };
    (@pat $v:ident { $($f:ident),* }) => { Self::$v { $($f),* } };
    (@pat $v:ident ($inner:ident $t:ty)) => { Self::$v($inner) };
    (@enc $v:ident) => { $crate::json::Json::Str(stringify!($v).to_string()) };
    (@enc $v:ident { $($f:ident),* }) => {
        $crate::json::Json::obj(vec![(
            stringify!($v),
            $crate::json::Json::obj(vec![
                $((stringify!($f), $crate::schema::WireJson::to_json($f))),*
            ]),
        )])
    };
    (@enc $v:ident ($inner:ident $t:ty)) => {
        $crate::json::Json::obj(vec![(stringify!($v), $crate::schema::WireJson::to_json($inner))])
    };
    (@dec $ty:ident $tag:ident $body:ident $v:ident) => {
        if $tag == stringify!($v) && $body.is_none() {
            return Ok(Self::$v);
        }
    };
    (@dec $ty:ident $tag:ident $body:ident $v:ident { $($f:ident),* }) => {
        if let (true, Some(body)) = ($tag == stringify!($v), $body) {
            return Ok(Self::$v {
                $($f: $crate::schema::field(
                    body,
                    concat!(stringify!($ty), "::", stringify!($v)),
                    stringify!($f),
                    None,
                )?,)*
            });
        }
    };
    (@dec $ty:ident $tag:ident $body:ident $v:ident ($inner:ident $t:ty)) => {
        if let (true, Some(body)) = ($tag == stringify!($v), $body) {
            return <$t as $crate::schema::WireJson>::from_json(body)
                .map(Self::$v)
                .map_err(|e| format!("{}::{}: {e}", stringify!($ty), stringify!($v)));
        }
    };
    ($ty:ident { $($v:ident $({ $($f:ident),* $(,)? })? $(($t:ty))?),* $(,)? }) => {
        impl $crate::schema::WireJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($crate::wire_enum!(@pat $v $({ $($f),* })? $((inner $t))?) =>
                        $crate::wire_enum!(@enc $v $({ $($f),* })? $((inner $t))?),)*
                }
            }
            fn from_json(value: &$crate::json::Json) -> Result<Self, String> {
                let (tag, body) = $crate::schema::variant(value, stringify!($ty))?;
                $($crate::wire_enum!(@dec $ty tag body $v $({ $($f),* })? $((inner $t))?);)*
                Err(format!("unknown {} variant {tag:?}", stringify!($ty)))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[derive(Debug, Clone, PartialEq)]
    struct Fields {
        n: u32,
        big: u64,
        x: f64,
        ok: bool,
        name: String,
        list: Vec<u64>,
        late: u32,
    }
    wire_struct!(Fields { n, big, x, ok, name, list, late = 7 });

    #[derive(Debug, Clone, PartialEq)]
    struct Even {
        n: u32,
    }
    fn even(e: &Even) -> Result<(), String> {
        if e.n.is_multiple_of(2) {
            Ok(())
        } else {
            Err(format!("{} is odd", e.n))
        }
    }
    wire_struct!(Even { n } check even);

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Stop,
        Run { fields: Fields, steps: u32 },
        Wrap(Even),
    }
    wire_enum!(Msg { Stop, Run { fields, steps }, Wrap(Even) });

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn fields(rng: &mut DetRng) -> Fields {
        Fields {
            n: rng.next_u64() as u32,
            big: rng.next_u64(),
            x: loop {
                let x = f64::from_bits(rng.next_u64());
                if x.is_finite() {
                    break x;
                }
            },
            ok: rng.chance(0.5),
            name: "q\"\\\n\t\u{1}é☃😀"
                .chars()
                .take(rng.range_usize(0, 10))
                .collect(),
            list: (0..rng.range_usize(0, 4))
                .map(|_| rng.next_u64() >> rng.range_usize(0, 64))
                .collect(),
            late: rng.next_u64() as u32,
        }
    }

    #[test]
    fn seeded_structs_round_trip_through_text() {
        let mut rng = DetRng::new(46);
        for _ in 0..500 {
            let v = fields(&mut rng);
            assert_eq!(Fields::from_json(&parse(&v.to_json().to_string())), Ok(v));
        }
    }

    #[test]
    fn a_default_covers_only_a_missing_key() {
        let text = r#"{"n":1,"big":2,"x":0.5,"ok":true,"name":"","list":[]}"#;
        assert_eq!(Fields::from_json(&parse(text)).map(|f| f.late), Ok(7));
        let bad = text.replace('}', r#","late":"x"}"#);
        assert_eq!(
            Fields::from_json(&parse(&bad)),
            Err("Fields.late: not a u32".into())
        );
    }

    #[test]
    fn decode_errors_name_the_type_and_the_field() {
        let err = |text: &str| Fields::from_json(&parse(text)).unwrap_err();
        assert_eq!(err(r#"{"n":1}"#), "Fields missing big");
        assert_eq!(err(r#"{"n":4294967296}"#), "Fields.n: not a u32");
        let list = r#"{"n":1,"big":2,"x":0.5,"ok":true,"name":"","list":[1,-1]}"#;
        assert_eq!(err(list), "Fields.list: [1]: not a u64");
        assert_eq!(
            Even::from_json(&parse(r#"{"n":3}"#)),
            Err("3 is odd".into())
        );
    }

    #[test]
    fn a_non_finite_float_encodes_as_null_and_is_rejected() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = x.to_json().to_string();
            assert_eq!(text, "null");
            assert!(f64::from_json(&parse(&text)).is_err());
        }
    }

    #[test]
    fn enum_variants_encode_externally_tagged() {
        assert_eq!(Msg::Stop.to_json().to_string(), r#""Stop""#);
        let wrap = Msg::Wrap(Even { n: 4 });
        assert_eq!(wrap.to_json().to_string(), r#"{"Wrap":{"n":4}}"#);
        let run = Msg::Run {
            fields: fields(&mut DetRng::new(1)),
            steps: 3,
        };
        for msg in [Msg::Stop, wrap, run] {
            assert_eq!(Msg::from_json(&parse(&msg.to_json().to_string())), Ok(msg));
        }
    }

    #[test]
    fn an_enum_decodes_only_from_a_name_or_a_one_key_object() {
        let err = |text: &str| Msg::from_json(&parse(text)).unwrap_err();
        let shape = "Msg is neither a variant name nor a one-key object";
        assert_eq!(err(r#"{"Wrap":{"n":2},"Stop":{}}"#), shape);
        assert_eq!(err(r#"{"Stop":{},"Wrap":{"n":2}}"#), shape);
        assert_eq!(err("{}"), shape);
        assert_eq!(err("7"), shape);
        assert_eq!(err(r#""Wrap""#), r#"unknown Msg variant "Wrap""#);
        assert_eq!(err(r#"{"Stop":{}}"#), r#"unknown Msg variant "Stop""#);
        assert_eq!(err(r#""Go""#), r#"unknown Msg variant "Go""#);
        assert_eq!(err(r#"{"Run":{"steps":1}}"#), "Msg::Run missing fields");
        assert_eq!(err(r#"{"Wrap":{"n":1}}"#), "Msg::Wrap: 1 is odd");
    }
}
