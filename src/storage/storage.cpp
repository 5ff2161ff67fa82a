#include "storage/storage.hpp"

#include <fstream>
#include <utility>

#include "storage/paged_source.hpp"
#include "summary/serialize.hpp"
#include "util/atomic_file.hpp"

namespace slugger::storage {

namespace {

PagedOpenOptions ToPagedOptions(const OpenOptions& options) {
  PagedOpenOptions paged;
  paged.buffer = options.buffer;
  paged.eager_verify = options.eager_verify;
  paged.record_cache_capacity = options.record_cache_capacity;
  return paged;
}

/// Wraps an open paged source per the requested mode.
StatusOr<CompressedGraph> FinishPagedOpen(
    StatusOr<std::shared_ptr<PagedSummarySource>> source,
    const OpenOptions& options) {
  if (!source.ok()) return source.status();
  CompressedGraph graph(std::move(source).value());
  if (options.mode == OpenOptions::Mode::kInMemory) {
    Status ready = graph.Materialize();
    if (!ready.ok()) return ready;
  }
  return graph;
}

}  // namespace

StatusOr<std::string> Serialize(const CompressedGraph& graph,
                                const SaveOptions& options) {
  // Either format serializes from the in-memory summary; a paged handle
  // must materialize first (and may legitimately fail to).
  Status ready = graph.Materialize();
  if (!ready.ok()) return ready;
  if (options.format == Format::kMonolithicV1) {
    return summary::SerializeSummary(graph.summary());
  }
  PagedWriteOptions paged;
  paged.page_size = options.page_size;
  return SerializePaged(graph.summary(), graph.stats(), paged);
}

Status Save(const CompressedGraph& graph, const std::string& path,
            const SaveOptions& options) {
  StatusOr<std::string> bytes = Serialize(graph, options);
  if (!bytes.ok()) return bytes.status();
  return WriteFileAtomically(path, bytes.value());
}

StatusOr<CompressedGraph> Open(const std::string& path,
                               const OpenOptions& options) {
  char magic[sizeof(kPagedMagic)] = {};
  size_t got = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IOError("cannot open " + path);
    }
    in.read(magic, sizeof(magic));
    got = static_cast<size_t>(in.gcount());
  }
  if (IsPagedMagic(magic, got)) {
    return FinishPagedOpen(
        PagedSummarySource::OpenFile(path, ToPagedOptions(options)), options);
  }
  // Not paged: hand the whole file to the v1 loader, which validates the
  // monolithic magic itself (and so also rejects unknown formats).
  StatusOr<summary::SummaryGraph> loaded = summary::LoadSummary(path);
  if (!loaded.ok()) return loaded.status();
  return CompressedGraph(std::move(loaded).value());
}

StatusOr<CompressedGraph> OpenBuffer(std::string bytes,
                                     const OpenOptions& options) {
  if (IsPagedMagic(bytes.data(), bytes.size())) {
    return FinishPagedOpen(
        PagedSummarySource::OpenBuffer(std::move(bytes),
                                       ToPagedOptions(options)),
        options);
  }
  StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(bytes);
  if (!parsed.ok()) return parsed.status();
  return CompressedGraph(std::move(parsed).value());
}

}  // namespace slugger::storage
