#include "app/file_drop.h"

namespace enclaves::app {

FileDrop::FileDrop(core::Member& member, Options options)
    : member_(member), options_(options) {
  member_.set_event_handler(
      [this](const core::GroupEvent& ev) { on_event(ev); });
}

Status FileDrop::send_file(const std::string& name, BytesView content) {
  const std::size_t chunk_size = options_.chunk_size;
  const std::uint32_t chunk_count = static_cast<std::uint32_t>(
      content.empty() ? 0 : (content.size() + chunk_size - 1) / chunk_size);

  FileOffer offer{next_transfer_id_++, name, content.size(), chunk_count,
                  crypto::Sha256::hash(content)};
  if (auto s = member_.send_data(wire::encode(offer)); !s.ok()) return s;

  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    std::size_t off = static_cast<std::size_t>(i) * chunk_size;
    std::size_t n = std::min(chunk_size, content.size() - off);
    FileChunk chunk{offer.transfer_id, i,
                    Bytes(content.begin() + static_cast<std::ptrdiff_t>(off),
                          content.begin() +
                              static_cast<std::ptrdiff_t>(off + n))};
    if (auto s = member_.send_data(wire::encode(chunk)); !s.ok()) return s;
  }
  return Status::success();
}

void FileDrop::handle_offer(const std::string& origin,
                            const FileOffer& offer) {
  // Reject absurd announcements outright.
  if (offer.total_size > static_cast<std::uint64_t>(offer.chunk_count) *
                             (1u << 24) &&
      offer.chunk_count != 0) {
    ++discarded_;
    return;
  }
  auto key = std::make_pair(origin, offer.transfer_id);
  inflight_[key] = Inflight{offer, {}, 0};
  if (offer.chunk_count == 0) try_complete(origin, offer.transfer_id);
}

void FileDrop::handle_chunk(const std::string& origin,
                            const FileChunk& chunk) {
  auto key = std::make_pair(origin, chunk.transfer_id);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;  // never offered (or already done)
  Inflight& transfer = it->second;
  if (chunk.index >= transfer.offer.chunk_count) {
    ++discarded_;
    inflight_.erase(it);
    return;
  }
  auto [pos, inserted] = transfer.chunks.emplace(chunk.index, chunk.data);
  if (!inserted) return;  // duplicate chunk: ignore
  transfer.buffered_bytes += chunk.data.size();
  if (transfer.buffered_bytes > options_.max_inflight_bytes ||
      transfer.buffered_bytes > transfer.offer.total_size) {
    ++discarded_;
    inflight_.erase(it);
    return;
  }
  if (transfer.chunks.size() == transfer.offer.chunk_count)
    try_complete(origin, chunk.transfer_id);
}

void FileDrop::try_complete(const std::string& origin,
                            std::uint64_t transfer_id) {
  auto key = std::make_pair(origin, transfer_id);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  Inflight& transfer = it->second;

  Bytes content;
  content.reserve(transfer.buffered_bytes);
  for (auto& [index, data] : transfer.chunks) append(content, data);

  bool ok = content.size() == transfer.offer.total_size &&
            crypto::Sha256::hash(content) == transfer.offer.digest;
  FileOffer offer = transfer.offer;
  inflight_.erase(it);
  if (!ok) {
    ++discarded_;
    return;
  }
  if (on_file) on_file(Received{origin, offer.name, std::move(content)});
}

void FileDrop::on_event(const core::GroupEvent& ev) {
  if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
    auto msg = wire::decode<FileMessage>(d->payload);
    if (!msg) {
      ++decode_failures_;
    } else if (const auto* offer = std::get_if<FileOffer>(&*msg)) {
      handle_offer(d->origin, *offer);
    } else if (const auto* chunk = std::get_if<FileChunk>(&*msg)) {
      handle_chunk(d->origin, *chunk);
    }
  }
  if (passthrough_) passthrough_(ev);
}

}  // namespace enclaves::app
