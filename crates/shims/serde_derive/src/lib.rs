//! Derive macros for the offline serde shim.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shapes this workspace uses: structs with named fields, tuple structs,
//! and enums of unit and newtype variants. The generated impls stream
//! through the shim's `Serializer` / `Deserializer` traits; no value tree
//! is built. There is no `syn`/`quote` available in the offline
//! environment, so parsing walks the raw [`proc_macro`] token stream
//! directly and code generation builds a string that is parsed back into a
//! `TokenStream`.
//!
//! The only `#[serde(...)]` attributes supported are the field-level
//! `#[serde(default)]` and `#[serde(default = "path")]` forms (missing keys
//! deserialize via `Default::default` / the named function — the backward
//! compatibility hook for fields added to persisted formats). Anything else
//! outside the supported shapes (generics, data-carrying variants, other
//! `#[serde(...)]` attributes) panics with a clear compile-time message
//! rather than silently mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named struct field: its name plus the `#[serde(default…)]` marker —
/// `None` (required), `Some(None)` (`Default::default`), or
/// `Some(Some(path))` (named default function).
struct Field {
    name: String,
    default: Option<Option<String>>,
}

enum Shape {
    /// Named-field struct: type name + fields in declaration order.
    Struct { name: String, fields: Vec<Field> },
    /// Tuple struct: type name + field count. A single-field tuple struct
    /// (newtype) serializes transparently as its inner value, matching
    /// serde's newtype convention; wider tuples serialize as arrays.
    Tuple { name: String, arity: usize },
    /// Enum of unit and/or newtype variants: type name + (variant name,
    /// carries-one-payload) in declaration order. Externally tagged like
    /// serde: unit variants as `"Name"`, newtype variants as
    /// `{"Name": payload}`.
    Enum { name: String, variants: Vec<(String, bool)> },
}

/// Derives `serde::Serialize`: the type writes itself to a
/// `serde::Serializer` field by field.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let mut body = String::from("__s.begin_object();\n");
            for f in &fields {
                let f = &f.name;
                body.push_str(&format!(
                    "__s.key(\"{f}\"); ::serde::Serialize::serialize(&self.{f}, __s);\n"
                ));
            }
            body.push_str("__s.end_object();");
            (name, body)
        }
        Shape::Tuple { name, arity: 1 } => {
            (name, "::serde::Serialize::serialize(&self.0, __s);".into())
        }
        Shape::Tuple { name, arity } => {
            let mut body = String::from("__s.begin_array();\n");
            for i in 0..arity {
                body.push_str(&format!(
                    "__s.element(); ::serde::Serialize::serialize(&self.{i}, __s);\n"
                ));
            }
            body.push_str("__s.end_array();");
            (name, body)
        }
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, has_payload) in &variants {
                if *has_payload {
                    arms.push_str(&format!(
                        "{name}::{v}(inner) => {{ __s.begin_object(); __s.key(\"{v}\"); \
                         ::serde::Serialize::serialize(inner, __s); __s.end_object(); }}\n"
                    ));
                } else {
                    arms.push_str(&format!("{name}::{v} => __s.write_str(\"{v}\"),\n"));
                }
            }
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derives `serde::Deserialize`: the type reads itself from a
/// `serde::Deserializer`. A struct matches each key against its field
/// names as a borrowed slice; the first of duplicate keys wins, unknown
/// keys are skipped, and a missing key takes the field's
/// `#[serde(default…)]`, or `Deserialize::missing` (`None` for an
/// `Option`), or is an error naming the field.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body, missing) = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let mut slots = String::new();
            let mut keys = String::new();
            let mut reads = String::new();
            let mut inits = String::new();
            for (i, f) in fields.iter().enumerate() {
                let key = &f.name;
                slots.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
                keys.push_str(&format!("\"{key}\" => {i}usize,\n"));
                reads.push_str(&format!(
                    "{i}usize if __f{i}.is_none() => \
                     __f{i} = ::std::option::Option::Some(::serde::field(__d, \"{key}\")?),\n"
                ));
                let fill = match &f.default {
                    None => format!(
                        "match __f{i} {{ ::std::option::Option::Some(v) => v, \
                         ::std::option::Option::None => ::serde::missing_field(\"{key}\")? }}"
                    ),
                    Some(None) => {
                        format!("__f{i}.unwrap_or_else(::std::default::Default::default)")
                    }
                    Some(Some(path)) => format!("__f{i}.unwrap_or_else({path})"),
                };
                inits.push_str(&format!("{key}: {fill},\n"));
            }
            let body = format!(
                "{slots}\
                 __d.begin_object()?;\n\
                 loop {{\n\
                     let __field = match __d.next_key()? {{\n\
                         ::std::option::Option::None => break,\n\
                         ::std::option::Option::Some(__key) => match __key {{\n\
                             {keys}\
                             _ => usize::MAX,\n\
                         }},\n\
                     }};\n\
                     match __field {{\n\
                         {reads}\
                         _ => __d.skip_value()?,\n\
                     }}\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {inits} }})"
            );
            (name, body, String::new())
        }
        Shape::Tuple { name, arity: 1 } => (
            name.clone(),
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))"),
            format!(
                "fn missing() -> ::std::option::Option<Self> {{\n\
                     ::serde::Deserialize::missing().map({name})\n\
                 }}"
            ),
        ),
        Shape::Tuple { name, arity } => {
            let arity_error = format!(
                "return ::std::result::Result::Err(::serde::DeError::new(\
                     \"wrong tuple arity for `{name}`\"))"
            );
            let mut items = String::new();
            for _ in 0..arity {
                items.push_str(&format!(
                    "{{ if !__d.next_element()? {{ {arity_error} }} \
                     ::serde::Deserialize::deserialize(__d)? }},"
                ));
            }
            let body = format!(
                "__d.begin_array()?;\n\
                 let __value = {name}({items});\n\
                 if __d.next_element()? {{ {arity_error} }}\n\
                 ::std::result::Result::Ok(__value)"
            );
            (name, body, String::new())
        }
        Shape::Enum { name, variants } => {
            let unknown = format!(
                "::std::result::Result::Err(::serde::DeError::new(\
                     format!(\"unknown `{name}` variant `{{other}}`\")))"
            );
            let not_a_variant = format!(
                "::std::result::Result::Err(::serde::DeError::new(\
                     \"expected variant of `{name}`\"))"
            );
            let mut unit_arms = String::new();
            let mut tags = String::new();
            let mut payload_arms = String::new();
            for (i, (v, has_payload)) in variants.iter().enumerate() {
                if *has_payload {
                    tags.push_str(&format!("\"{v}\" => {i}usize,\n"));
                    payload_arms.push_str(&format!(
                        "{i}usize => {name}::{v}(::serde::Deserialize::deserialize(__d)?),\n"
                    ));
                } else {
                    unit_arms
                        .push_str(&format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"));
                }
            }
            let object_arm = if payload_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::serde::Kind::Object => {{\n\
                         __d.begin_object()?;\n\
                         let __variant = match __d.next_key()? {{\n\
                             ::std::option::Option::Some(__tag) => match __tag {{\n\
                                 {tags}\
                                 other => return {unknown},\n\
                             }},\n\
                             ::std::option::Option::None => return {not_a_variant},\n\
                         }};\n\
                         let __value = match __variant {{\n\
                             {payload_arms}\
                             _ => unreachable!(),\n\
                         }};\n\
                         match __d.next_key()? {{\n\
                             ::std::option::Option::None => ::std::result::Result::Ok(__value),\n\
                             ::std::option::Option::Some(_) => {not_a_variant},\n\
                         }}\n\
                     }}\n"
                )
            };
            let body = format!(
                "match __d.peek()? {{\n\
                     ::serde::Kind::Str => match __d.read_str()? {{\n\
                         {unit_arms}\
                         other => {unknown},\n\
                     }},\n\
                     {object_arm}\
                     _ => {not_a_variant},\n\
                 }}"
            );
            (name, body, String::new())
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize<__D: ::serde::Deserializer>(__d: &mut __D) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
             {missing}\n\
         }}"
    )
    .parse()
    .expect("serde_derive: generated Deserialize impl failed to parse")
}

/// Parses the derive input into the supported struct/enum shape, panicking
/// (a compile error at the derive site) on unsupported syntax.
fn parse_shape(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attributes_and_visibility(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        other => panic!("serde_derive: expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive: generic types are not supported by the offline shim ({name})");
        }
    }

    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if kind == "struct" {
                Shape::Struct { name, fields: parse_named_fields(g.stream()) }
            } else {
                Shape::Enum { name, variants: parse_enum_variants(g.stream()) }
            }
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis && kind == "struct" =>
        {
            Shape::Tuple { name, arity: count_tuple_fields(g.stream()) }
        }
        other => panic!("serde_derive: expected body for {name}, found {other:?}"),
    }
}

/// Counts fields in a tuple-struct body by splitting at top-level commas.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle_depth = 0_i32;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            // a trailing comma does not start another field
            TokenTree::Punct(p)
                if p.as_char() == ',' && angle_depth == 0 && idx + 1 < tokens.len() =>
            {
                arity += 1
            }
            _ => {}
        }
    }
    arity
}

/// Advances `i` past any `#[...]` attributes and a `pub` / `pub(...)`
/// visibility prefix.
fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then the bracketed attribute group
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return,
        }
    }
}

/// Parses one field's attribute list for the supported `#[serde(...)]`
/// forms while advancing past attributes and visibility. Non-serde
/// attributes (doc comments etc.) are skipped; unsupported serde attributes
/// panic so they cannot silently mis-deserialize.
fn take_field_attrs(tokens: &[TokenTree], i: &mut usize) -> Option<Option<String>> {
    let mut default = None;
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    if let Some(d) = parse_serde_attr(g.stream()) {
                        default = Some(d);
                    }
                }
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            _ => return default,
        }
    }
}

/// If the attribute body (the tokens inside `#[...]`) is a
/// `serde(default…)` form, returns its default spec (`None` =
/// `Default::default`, `Some(path)` = named function). Other attributes
/// return `None`; other serde attributes panic.
fn parse_serde_attr(body: TokenStream) -> Option<Option<String>> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner: Vec<TokenTree> = match tokens.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().into_iter().collect()
        }
        other => panic!("serde_derive: malformed `#[serde(...)]` attribute: {other:?}"),
    };
    match inner.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "default" => {}
        other => panic!(
            "serde_derive: only `#[serde(default)]` / `#[serde(default = \"path\")]` are \
             supported by the offline shim, found {other:?}"
        ),
    }
    match inner.get(1) {
        None => Some(None),
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
            let lit = match inner.get(2) {
                Some(TokenTree::Literal(l)) => l.to_string(),
                other => panic!("serde_derive: expected path literal after `default =`: {other:?}"),
            };
            let path = lit.trim_matches('"').to_string();
            Some(Some(path))
        }
        other => panic!("serde_derive: malformed `#[serde(default…)]` attribute: {other:?}"),
    }
}

/// Extracts fields from a named-field struct body: for each field, parses
/// its attributes (capturing `#[serde(default…)]`), takes the identifier
/// before `:`, then skips type tokens to the next top-level comma.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let default = take_field_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, found {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field `{name}`, found {other:?}"),
        }
        fields.push(Field { name, default });
        // skip the type up to the next comma at angle-bracket depth 0
        let mut angle_depth = 0_i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Extracts `(variant name, carries payload)` pairs from an enum body.
/// Unit variants and single-field tuple (newtype) variants are supported;
/// attributes such as `#[default]` are skipped.
fn parse_enum_variants(body: TokenStream) -> Vec<(String, bool)> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, found {other:?}"),
        };
        i += 1;
        let mut has_payload = false;
        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    if count_tuple_fields(g.stream()) != 1 {
                        panic!(
                            "serde_derive: variant `{name}` has more than one field; only \
                             unit and newtype variants are supported by the offline shim"
                        );
                    }
                    has_payload = true;
                    i += 1;
                }
                _ => panic!(
                    "serde_derive: variant `{name}` has named fields; only unit and newtype \
                     variants are supported by the offline shim"
                ),
            }
        }
        match tokens.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => panic!(
                "serde_derive: variant `{name}` has an explicit discriminant; not supported \
                 by the offline shim"
            ),
            other => panic!("serde_derive: unexpected token after variant `{name}`: {other:?}"),
        }
        variants.push((name, has_payload));
    }
    variants
}
