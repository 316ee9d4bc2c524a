#include "checkpoint.hh"

#include <algorithm>
#include <filesystem>
#include <set>

#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace smartsage::core
{

namespace
{

/** 'SSCKPT1\0' little-endian: stamps every manifest file. */
constexpr std::uint64_t kManifestMagic = 0x0031544b43535353ULL;

constexpr const char *kManifestPrefix = "manifest-";
constexpr const char *kManifestSuffix = ".ckpt";

std::optional<std::uint64_t>
parseManifestStep(const std::string &filename)
{
    const std::string prefix = kManifestPrefix;
    const std::string suffix = kManifestSuffix;
    if (filename.size() <= prefix.size() + suffix.size() ||
        filename.compare(0, prefix.size(), prefix) != 0 ||
        filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
        return std::nullopt;
    const std::string digits = filename.substr(
        prefix.size(), filename.size() - prefix.size() - suffix.size());
    std::uint64_t step = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return std::nullopt;
        step = step * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return step;
}

} // namespace

bool
applyKnob(CheckpointConfig &config, std::string_view key, double value)
{
    if (key == "interval_batches")
        config.interval_batches = static_cast<std::uint64_t>(value);
    else if (key == "warm_cache")
        config.warm_cache = value != 0.0;
    else if (key == "keep_last")
        config.keep_last = static_cast<std::uint64_t>(value);
    else if (key == "chunk_kib")
        config.chunk_kib = static_cast<std::uint64_t>(value);
    else if (key == "write_gbps")
        config.write_gbps = value;
    else if (key == "read_gbps")
        config.read_gbps = value;
    else
        return false;
    return true;
}

void
validate(const CheckpointConfig &config)
{
    if (config.chunk_kib == 0)
        SS_FATAL("CheckpointConfig: ckpt.chunk_kib must be positive, "
                 "got 0");
    if (config.keep_last == 0)
        SS_FATAL("CheckpointConfig: ckpt.keep_last must be >= 1 (a "
                 "store that keeps nothing cannot be resumed from)");
    if (!(config.write_gbps > 0.0) || !(config.read_gbps > 0.0))
        SS_FATAL("CheckpointConfig: ckpt.write_gbps and ckpt.read_gbps "
                 "must be positive, got ",
                 config.write_gbps, " / ", config.read_gbps);
}

CheckpointManager::CheckpointManager(const CheckpointConfig &config)
    : config_(config)
{
    SS_ASSERT(!config_.dir.empty(),
              "CheckpointManager needs a directory");
    std::error_code ec;
    fs::create_directories(fs::path(config_.dir) / "chunks", ec);
    if (ec)
        throw sim::SerializeError("cannot create checkpoint dir " +
                                  config_.dir + ": " + ec.message());
}

std::string
CheckpointManager::manifestPath(std::uint64_t step) const
{
    return (fs::path(config_.dir) /
            (kManifestPrefix + std::to_string(step) + kManifestSuffix))
        .string();
}

std::string
CheckpointManager::chunkPath(std::uint64_t hash) const
{
    return (fs::path(config_.dir) / "chunks" /
            (sim::hashHex(hash) + ".bin"))
        .string();
}

void
CheckpointManager::save(const Snapshot &snapshot)
{
    const std::uint64_t chunk_bytes = config_.chunk_kib * 1024;
    sim::ByteWriter manifest;
    manifest.u64(kManifestMagic);
    manifest.u32(kCheckpointFormatVersion);
    manifest.u64(snapshot.step);
    manifest.u64(snapshot.sections.size());

    for (const auto &[name, payload] : snapshot.sections) {
        const std::uint64_t chunks =
            payload.empty() ? 0
                            : (payload.size() + chunk_bytes - 1) /
                                  chunk_bytes;
        manifest.str(name);
        manifest.u64(payload.size());
        manifest.u64(chunks);
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const std::size_t off =
                static_cast<std::size_t>(c * chunk_bytes);
            const std::size_t len = std::min<std::size_t>(
                chunk_bytes, payload.size() - off);
            const std::uint64_t hash =
                sim::fnv1a64(payload.data() + off, len);
            manifest.u64(hash);
            manifest.u64(len);
            manifest.u32(sim::crc32(payload.data() + off, len));

            // Content-addressed dedup: a chunk already on disk (same
            // hash, same bytes) is shared with prior manifests.
            const std::string path = chunkPath(hash);
            std::error_code ec;
            if (fs::exists(path, ec)) {
                ++stats_.chunks_deduped;
                continue;
            }
            std::vector<std::uint8_t> body(payload.begin() + off,
                                           payload.begin() + off + len);
            sim::atomicWriteFile(path, body);
            ++stats_.chunks_written;
            stats_.bytes_written += len;
        }
    }

    // Trailing CRC over everything above seals the manifest.
    std::vector<std::uint8_t> body = manifest.take();
    const std::uint32_t crc = sim::crc32(body);
    sim::ByteWriter sealed;
    sealed.bytes(body.data(), body.size());
    sealed.u32(crc);
    const std::vector<std::uint8_t> doc = sealed.take();
    sim::atomicWriteFile(manifestPath(snapshot.step), doc);
    stats_.manifest_bytes += doc.size();
    ++stats_.saves;
    prune();
}

std::vector<std::uint64_t>
CheckpointManager::steps() const
{
    std::vector<std::uint64_t> out;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(config_.dir, ec)) {
        auto step = parseManifestStep(entry.path().filename().string());
        if (step)
            out.push_back(*step);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<std::uint64_t>
CheckpointManager::latestStep() const
{
    std::vector<std::uint64_t> all = steps();
    if (all.empty())
        return std::nullopt;
    return all.back();
}

Snapshot
CheckpointManager::load(std::uint64_t step)
{
    const ManifestInfo info = readManifest(manifestPath(step));
    Snapshot snapshot;
    snapshot.step = info.step;
    for (const auto &section : info.sections) {
        std::vector<std::uint8_t> payload;
        for (const auto &chunk : section.chunks) {
            std::vector<std::uint8_t> body =
                sim::readFile(chunkPath(chunk.hash));
            if (body.size() != chunk.size ||
                sim::crc32(body) != chunk.crc)
                throw sim::SerializeError(
                    "chunk " + sim::hashHex(chunk.hash) +
                    " corrupt (size/CRC mismatch) in section '" +
                    section.name + "'");
            stats_.bytes_read += body.size();
            payload.insert(payload.end(), body.begin(), body.end());
        }
        if (payload.size() != section.total_bytes)
            throw sim::SerializeError(
                "section '" + section.name + "' reassembled to " +
                std::to_string(payload.size()) + " bytes, manifest " +
                "says " + std::to_string(section.total_bytes));
        snapshot.sections.emplace(section.name, std::move(payload));
    }
    ++stats_.loads;
    return snapshot;
}

void
CheckpointManager::prune()
{
    std::vector<std::uint64_t> all = steps();
    if (all.size() > config_.keep_last) {
        const std::size_t drop = all.size() - config_.keep_last;
        for (std::size_t i = 0; i < drop; ++i) {
            std::error_code ec;
            fs::remove(manifestPath(all[i]), ec);
        }
        all.erase(all.begin(),
                  all.begin() + static_cast<std::ptrdiff_t>(drop));
    }

    // GC: drop chunks no surviving manifest references.
    std::set<std::uint64_t> live;
    for (std::uint64_t step : all) {
        const ManifestInfo info = readManifest(manifestPath(step));
        for (const auto &section : info.sections)
            for (const auto &chunk : section.chunks)
                live.insert(chunk.hash);
    }
    std::error_code ec;
    const fs::path chunk_dir = fs::path(config_.dir) / "chunks";
    std::vector<fs::path> dead;
    for (const auto &entry : fs::directory_iterator(chunk_dir, ec)) {
        const std::string stem = entry.path().stem().string();
        if (stem.size() != 16)
            continue;
        std::uint64_t hash = 0;
        bool ok = true;
        for (char c : stem) {
            hash <<= 4;
            if (c >= '0' && c <= '9')
                hash |= static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                hash |= static_cast<std::uint64_t>(c - 'a' + 10);
            else
                ok = false;
        }
        if (ok && !live.count(hash))
            dead.push_back(entry.path());
    }
    for (const auto &path : dead)
        fs::remove(path, ec);
}

ManifestInfo
readManifest(const std::string &path)
{
    const std::vector<std::uint8_t> doc = sim::readFile(path);
    if (doc.size() < 4)
        throw sim::SerializeError("manifest too short: " + path);
    const std::size_t body_size = doc.size() - 4;
    sim::ByteReader trailer(doc.data() + body_size, 4);
    if (trailer.u32() != sim::crc32(doc.data(), body_size))
        throw sim::SerializeError("manifest CRC mismatch: " + path);

    sim::ByteReader reader(doc.data(), body_size);
    if (reader.u64() != kManifestMagic)
        throw sim::SerializeError("not a checkpoint manifest: " + path);
    ManifestInfo info;
    info.format_version = reader.u32();
    if (info.format_version > kCheckpointFormatVersion)
        throw sim::SerializeError(
            "manifest " + path + " has format version " +
            std::to_string(info.format_version) +
            "; this build reads up to " +
            std::to_string(kCheckpointFormatVersion));
    info.step = reader.u64();
    const std::uint64_t sections = reader.u64();
    for (std::uint64_t i = 0; i < sections; ++i) {
        ManifestSectionInfo section;
        section.name = reader.str();
        section.total_bytes = reader.u64();
        const std::uint64_t chunks = reader.u64();
        for (std::uint64_t c = 0; c < chunks; ++c) {
            ManifestChunkInfo chunk;
            chunk.hash = reader.u64();
            chunk.size = reader.u64();
            chunk.crc = reader.u32();
            section.chunks.push_back(chunk);
        }
        info.sections.push_back(std::move(section));
    }
    return info;
}

} // namespace smartsage::core
