// One field list per wire message; encode() and decode<P>() derive from it.
//
// A message states its layout once, as `kWireFields`: a tuple of member
// pointers (and the wrappers below) in wire order. A top-level message also
// names its leading type octet, `kWireType`; a message without one (the
// Envelope, whose first octet is its label) starts directly with its
// fields. Because both directions walk the same list, an encoder and its
// decoder cannot drift apart.
//
// Field kinds, by member type:
//   std::string         u32 length + characters   (Writer::str)
//   Bytes               u32 length + bytes        (Writer::var_bytes)
//   u32 / u64           big-endian
//   bool                one octet, strictly 0 or 1, else malformed
//   keys and nonces, std::array<u8, N>            N raw bytes
//   a struct with kWireFields                     its fields, inline
// and, by wrapper:
//   Named{&P::e, e_name}   one enum octet; a value e_name() calls "?" is
//                          malformed (each wire enum is listed once, in its
//                          name function)
//   AtMost{&P::n, max}     u32; above `max` is oversized
//   Capped{&P::v, max}     u32 count, above `max` oversized, then each
//                          element inline (a nested struct without its type
//                          octet)
//   Exactly{&P::b, len}    length-prefixed bytes; any other length is
//                          malformed
//   Embedded{&P::m}        length-prefixed encode(m). Must be the last
//                          field: the outer end check runs before `m` is
//                          decoded.
//
// A std::variant of messages is itself a message: it is encoded as the
// active alternative, and decoded by the alternative whose kWireType matches
// the leading octet (no match is malformed).
//
// Every decode reads the type octet, then each field in list order, then
// rejects trailing bytes; the first failure is the result.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "wire/codec.h"

namespace enclaves::wire {

template <class C, class E>
struct Named {
  E C::*member;
  const char* (*name)(E);
};
template <class C, class E>
Named(E C::*, const char* (*)(E)) -> Named<C, E>;

template <class C>
struct AtMost {
  std::uint32_t C::*member;
  std::uint32_t max;
};
template <class C>
AtMost(std::uint32_t C::*, std::uint32_t) -> AtMost<C>;

template <class C, class T>
struct Capped {
  std::vector<T> C::*member;
  std::uint32_t max;
};
template <class C, class T>
Capped(std::vector<T> C::*, std::uint32_t) -> Capped<C, T>;

template <class C>
struct Exactly {
  Bytes C::*member;
  std::size_t len;
};
template <class C>
Exactly(Bytes C::*, std::size_t) -> Exactly<C>;

template <class C, class M>
struct Embedded {
  M C::*member;
};
template <class C, class M>
Embedded(M C::*) -> Embedded<C, M>;

template <class P>
concept Fielded = requires { P::kWireFields; };

template <class V>
inline constexpr bool kIsVariant = false;
template <class... A>
inline constexpr bool kIsVariant<std::variant<A...>> = true;

template <class P>
concept Message = Fielded<P> || kIsVariant<P>;

template <Message P>
Bytes encode(const P& p);
template <Message P>
Result<P> decode(BytesView raw);

namespace fields {

template <class T>
void put(Writer& w, const T& v);

template <class C, class T>
void put_field(Writer& w, const C& p, T C::*m) {
  put(w, p.*m);
}
template <class C, class E>
void put_field(Writer& w, const C& p, const Named<C, E>& f) {
  w.u8(static_cast<std::uint8_t>(p.*f.member));
}
template <class C>
void put_field(Writer& w, const C& p, const AtMost<C>& f) {
  w.u32(p.*f.member);
}
template <class C, class T>
void put_field(Writer& w, const C& p, const Capped<C, T>& f) {
  const auto& v = p.*f.member;
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& x : v) put(w, x);
}
template <class C>
void put_field(Writer& w, const C& p, const Exactly<C>& f) {
  w.var_bytes(p.*f.member);
}
template <class C, class M>
void put_field(Writer& w, const C& p, const Embedded<C, M>& f) {
  w.var_bytes(encode(p.*f.member));
}

template <class P>
void put_all(Writer& w, const P& p) {
  std::apply([&](const auto&... f) { (put_field(w, p, f), ...); },
             P::kWireFields);
}

template <class T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.var_bytes(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (Fielded<T>) {
    put_all(w, v);
  } else if constexpr (requires { v.view(); }) {
    w.raw(v.view());
  } else {
    w.raw({v.data(), v.size()});
  }
}

template <class R, class T>
Status assign(R&& read, T& out) {
  if (!read) return read.error();
  out = *std::forward<R>(read);
  return Status::success();
}

template <class T>
Status get(Reader& r, T& v);

template <class C, class T>
Status get_field(Reader& r, C& p, T C::*m) {
  return get(r, p.*m);
}
template <class C, class E>
Status get_field(Reader& r, C& p, const Named<C, E>& f) {
  auto octet = r.u8();
  if (!octet) return octet.error();
  if (*f.name(static_cast<E>(*octet)) == '?')
    return make_error(Errc::malformed, "unknown enum value");
  p.*f.member = static_cast<E>(*octet);
  return Status::success();
}
template <class C>
Status get_field(Reader& r, C& p, const AtMost<C>& f) {
  auto v = r.u32();
  if (!v) return v.error();
  if (*v > f.max) return make_error(Errc::oversized, "value above cap");
  p.*f.member = *v;
  return Status::success();
}
template <class C, class T>
Status get_field(Reader& r, C& p, const Capped<C, T>& f) {
  auto count = r.u32();
  if (!count) return count.error();
  if (*count > f.max) return make_error(Errc::oversized, "count above cap");
  auto& v = p.*f.member;
  v.clear();
  // Every element takes at least one byte, so the input bounds the reserve.
  v.reserve(std::min<std::size_t>(*count, r.remaining()));
  for (std::uint32_t i = 0; i < *count; ++i) {
    T x{};
    if (auto s = get(r, x); !s) return s;
    v.push_back(std::move(x));
  }
  return Status::success();
}
template <class C>
Status get_field(Reader& r, C& p, const Exactly<C>& f) {
  auto b = r.var_view();
  if (!b) return b.error();
  if (b->size() != f.len) return make_error(Errc::malformed, "length");
  (p.*f.member).assign(b->begin(), b->end());
  return Status::success();
}
template <class C, class M>
Status get_field(Reader& r, C& p, const Embedded<C, M>& f) {
  auto b = r.var_view();
  if (!b) return b.error();
  if (auto end = r.expect_end(); !end) return end;
  return assign(decode<M>(*b), p.*f.member);
}

template <class P>
Status get_all(Reader& r, P& p) {
  Status s;
  std::apply(
      [&](const auto&... f) {
        (void)((s = get_field(r, p, f)).ok() && ...);
      },
      P::kWireFields);
  return s;
}

template <class T>
Status get(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return assign(r.str(), v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return assign(r.var_bytes(), v);
  } else if constexpr (std::is_same_v<T, bool>) {
    auto b = r.u8();
    if (!b) return b.error();
    if (*b > 1) return make_error(Errc::malformed, "bool octet not 0/1");
    v = *b == 1;
    return Status::success();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return assign(r.u32(), v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return assign(r.u64(), v);
  } else if constexpr (Fielded<T>) {
    return get_all(r, v);
  } else if constexpr (requires { T::from_bytes(BytesView{}); }) {
    auto b = r.view(v.view().size());
    if (!b) return b.error();
    v = T::from_bytes(*b);
    return Status::success();
  } else {
    auto b = r.view(v.size());
    if (!b) return b.error();
    std::copy(b->begin(), b->end(), v.begin());
    return Status::success();
  }
}

// Fields, then the end check (a type octet has already been matched).
template <class P>
Result<P> get_body(Reader& r) {
  P p{};
  if (auto s = get_all(r, p); !s) return s.error();
  if (auto end = r.expect_end(); !end) return end.error();
  return p;
}

template <class V, std::size_t I = 0>
Result<V> get_alternative(Reader& r, std::uint8_t type) {
  if constexpr (I == std::variant_size_v<V>) {
    return make_error(Errc::malformed, "unknown type octet");
  } else {
    using A = std::variant_alternative_t<I, V>;
    if (type != A::kWireType) return get_alternative<V, I + 1>(r, type);
    auto a = get_body<A>(r);
    if (!a) return a.error();
    return V(*std::move(a));
  }
}

}  // namespace fields

template <Message P>
Bytes encode(const P& p) {
  if constexpr (kIsVariant<P>) {
    return std::visit([](const auto& a) { return encode(a); }, p);
  } else {
    Writer w;
    if constexpr (requires { P::kWireType; }) w.u8(P::kWireType);
    fields::put_all(w, p);
    return std::move(w).take();
  }
}

template <Message P>
Result<P> decode(BytesView raw) {
  Reader r(raw);
  if constexpr (kIsVariant<P>) {
    auto type = r.u8();
    if (!type) return type.error();
    return fields::get_alternative<P>(r, *type);
  } else {
    if constexpr (requires { P::kWireType; }) {
      auto type = r.u8();
      if (!type) return type.error();
      if (*type != P::kWireType)
        return make_error(Errc::malformed, "type octet mismatch");
    }
    return fields::get_body<P>(r);
  }
}

}  // namespace enclaves::wire
