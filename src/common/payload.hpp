// Small-buffer overlay-message payload.
//
// underlay::Message used to carry its overlay payload in a std::any.
// libstdc++'s std::any stores at most one pointer's worth of bytes
// inline, and every Gnutella descriptor (guid + ttl + content) is bigger
// than that — so each flooded message paid one heap allocation just to
// exist. Payload is the std::any subset the overlays actually use
// (construct from T, copy/move, typed pointer cast) with a buffer sized
// for real descriptors: anything up to kInlineCapacity bytes (and at most
// 8-byte aligned) lives in the message itself, larger payloads (e.g.
// Kademlia FIND_NODE requests and replies that carry vectors) spill to a
// single owned heap object exactly as before.
//
// Type identification is an ops-table pointer per stored type — no RTTI,
// one comparison per cast. payload_cast<T> mirrors std::any_cast<T>
// pointer semantics: nullptr when the payload is empty or holds another
// type.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace uap2p {

namespace detail {
/// One instantiation per payload type; its address is the type's identity
/// (inline variables collapse across translation units).
template <typename T>
inline constexpr char kPayloadTypeTag = 0;
}  // namespace detail

class Payload {
 public:
  /// Sized for the flooding descriptors (a u64 guid plus two 32-bit
  /// fields) while keeping Message at 40 bytes, so the transport's
  /// delivery closure ({Network*, Message}) fills the engine's 48-byte
  /// inline slot exactly.
  static constexpr std::size_t kInlineCapacity = 16;
  static constexpr std::size_t kInlineAlignment = 8;

  Payload() = default;
  Payload(const Payload& other) { copy_from(other); }
  Payload(Payload&& other) noexcept { move_from(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  /// Constructs/assigns from any copyable value type (the std::any
  /// interface the overlays rely on).
  template <typename T, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<T>, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor)
    emplace<std::decay_t<T>>(std::forward<T>(value));
  }
  template <typename T, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<T>, Payload>>>
  Payload& operator=(T&& value) {
    reset();
    emplace<std::decay_t<T>>(std::forward<T>(value));
    return *this;
  }

  [[nodiscard]] bool has_value() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    const void* type;  ///< &detail::kPayloadTypeTag<T>
    void* (*get)(void*);
    void (*destroy)(void*);
    void (*copy)(void* dst, const void* src);
    void (*relocate)(void* dst, void* src);
  };

  template <typename T>
  static constexpr bool kFitsInline =
      sizeof(T) <= kInlineCapacity &&
      alignof(T) <= kInlineAlignment &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static constexpr Ops kInlineOps = {
      &detail::kPayloadTypeTag<T>,
      [](void* p) -> void* { return std::launder(static_cast<T*>(p)); },
      [](void* p) { std::launder(static_cast<T*>(p))->~T(); },
      [](void* dst, const void* src) {
        ::new (dst) T(*std::launder(static_cast<const T*>(src)));
      },
      [](void* dst, void* src) {
        T* from = std::launder(static_cast<T*>(src));
        ::new (dst) T(std::move(*from));
        from->~T();
      }};

  template <typename T>
  static constexpr Ops kHeapOps = {
      &detail::kPayloadTypeTag<T>,
      [](void* p) -> void* { return *static_cast<T**>(p); },
      [](void* p) { delete *static_cast<T**>(p); },
      [](void* dst, const void* src) {
        ::new (dst) T*(new T(**static_cast<T* const*>(src)));
      },
      [](void* dst, void* src) {
        ::new (dst) T*(*static_cast<T**>(src));
      }};

  template <typename T, typename... Args>
  void emplace(Args&&... args) {
    static_assert(std::is_copy_constructible_v<T>,
                  "message payloads must be copyable");
    if constexpr (kFitsInline<T>) {
      ::new (static_cast<void*>(storage_)) T(std::forward<Args>(args)...);
      ops_ = &kInlineOps<T>;
    } else {
      ::new (static_cast<void*>(storage_)) T*(
          new T(std::forward<Args>(args)...));
      ops_ = &kHeapOps<T>;
    }
  }

  void copy_from(const Payload& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->copy(storage_, other.storage_);
  }
  void move_from(Payload& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  template <typename T>
  friend T* payload_cast(Payload* payload);
  template <typename T>
  friend const T* payload_cast(const Payload* payload);

  alignas(kInlineAlignment) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// std::any_cast-style typed access: the stored object if the payload
/// holds exactly a T, nullptr otherwise.
template <typename T>
[[nodiscard]] T* payload_cast(Payload* payload) {
  if (payload == nullptr || payload->ops_ == nullptr ||
      payload->ops_->type != &detail::kPayloadTypeTag<T>) {
    return nullptr;
  }
  return static_cast<T*>(payload->ops_->get(payload->storage_));
}

template <typename T>
[[nodiscard]] const T* payload_cast(const Payload* payload) {
  return payload_cast<T>(const_cast<Payload*>(payload));
}

}  // namespace uap2p
