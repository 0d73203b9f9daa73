#include "references.h"

#include <cstring>

namespace perfbench {

// Generated by --print-references; see references.h.
const PinnedDigest kLenetSweepDigests[] = {
    {"df_b1", 0x3b7186df11dbea0bULL},
    {"df_b5", 0x41fb65c9532af186ULL},
    {"df_b10", 0x5b5b1a4805a12abcULL},
    {"df_b15", 0xb0f2db6e58b77a27ULL},
    {"df_b20", 0x65ba71c5274cdd3bULL},
    {"nodf_b1", 0xe429487caea627b6ULL},
    {"nodf_b5", 0xb965d1e0f1d2889fULL},
    {"nodf_b10", 0x321ec0c26dd9517fULL},
    {"nodf_b15", 0xfc38fe8b71b044b6ULL},
    {"nodf_b20", 0x60542e552ed00efdULL},
    {nullptr, 0},
};

const PinnedDigest kZooDigests[] = {
    {"2mm/HIDA", 0x8c0e93dacc17e519ULL},
    {"2mm/ScaleHLS", 0xc2b9ac85c060a2d6ULL},
    {"2mm/Vitis", 0x7275685b238b759cULL},
    {"3mm/HIDA", 0x8a646dd96c4669e7ULL},
    {"3mm/ScaleHLS", 0xcc1d33e13991fb4cULL},
    {"3mm/Vitis", 0x35d199546cfe86a2ULL},
    {"atax/HIDA", 0xad5ef0b820b58d12ULL},
    {"atax/ScaleHLS", 0x3a84dbcbe3e0b7d0ULL},
    {"atax/Vitis", 0x35fa9a38f1132021ULL},
    {"bicg/HIDA", 0x52f151dde3b4c0cbULL},
    {"bicg/ScaleHLS", 0x369c6b64f1e255a5ULL},
    {"bicg/Vitis", 0x4fa1b30384f2fb80ULL},
    {"correlation/HIDA", 0x3206e478972aac85ULL},
    {"correlation/ScaleHLS", 0x5114ad02bfcb03d4ULL},
    {"correlation/Vitis", 0xf7372f3ec5fa3c40ULL},
    {"gesummv/HIDA", 0xb2394b4cfb31ab7fULL},
    {"gesummv/ScaleHLS", 0xb2394b4cfb31ab7fULL},
    {"gesummv/Vitis", 0x6b5c59d874f27b11ULL},
    {"jacobi-2d/HIDA", 0x80d0ee70c779e773ULL},
    {"jacobi-2d/ScaleHLS", 0x80d0ee70c779e773ULL},
    {"jacobi-2d/Vitis", 0x49a8a558a3144b6dULL},
    {"mvt/HIDA", 0x74a25f8166fea7eeULL},
    {"mvt/ScaleHLS", 0x74a25f8166fea7eeULL},
    {"mvt/Vitis", 0x83c24c8074e18c52ULL},
    {"seidel-2d/HIDA", 0xaf8b9fc76d38aa16ULL},
    {"seidel-2d/ScaleHLS", 0xaf8b9fc76d38aa16ULL},
    {"seidel-2d/Vitis", 0xbe89aa26cc9b0f09ULL},
    {"symm/HIDA", 0xd9da71ffedc4cdf6ULL},
    {"symm/ScaleHLS", 0xd9da71ffedc4cdf6ULL},
    {"symm/Vitis", 0x6983193cdf7440d8ULL},
    {"syr2k/HIDA", 0xc76bd476fafda652ULL},
    {"syr2k/ScaleHLS", 0x870ecca698ff7707ULL},
    {"syr2k/Vitis", 0x482121f2c4a4a9feULL},
    {"ResNet-18/HIDA", 0xdc0d63d6c32d335aULL},
    {"ResNet-18/ScaleHLS", 0x7d2b053e1f203153ULL},
    {"ResNet-18/Vitis", 0xe369225d36df3b99ULL},
    {"MobileNet/HIDA", 0x61279d791604f1f6ULL},
    {"MobileNet/ScaleHLS", 0x2bbca7b18d663173ULL},
    {"MobileNet/Vitis", 0x455503983a160d42ULL},
    {"ZFNet/HIDA", 0x32512548053c99f9ULL},
    {"ZFNet/Vitis", 0xd4938a0329aa3f71ULL},
    {"VGG-16/HIDA", 0x3d5f8eead080109eULL},
    {"VGG-16/ScaleHLS", 0x50583986efa64399ULL},
    {"VGG-16/Vitis", 0x5980b1e9ca64b909ULL},
    {"YOLO/HIDA", 0x5a054e158cd79136ULL},
    {"YOLO/Vitis", 0x069afafb72a22258ULL},
    {"MLP/HIDA", 0x49d6ef3b0bb88af0ULL},
    {"MLP/ScaleHLS", 0xac69fa7f9c69abe2ULL},
    {"MLP/Vitis", 0xdcf99a7b22fd75abULL},
    {"LeNet-b1/HIDA", 0xbe30189b16093f73ULL},
    {"LeNet-b1/ScaleHLS", 0x63fe05bc1bac0493ULL},
    {"LeNet-b1/Vitis", 0xae3e4c2f2d3c99afULL},
    {"LeNet-b10/HIDA", 0x566b219866322e72ULL},
    {"LeNet-b10/ScaleHLS", 0x8c92d9204b3ea6dfULL},
    {"LeNet-b10/Vitis", 0x3c55412f913692c1ULL},
    {nullptr, 0},
};

const uint64_t*
findPinned(const PinnedDigest* table, const std::string& key)
{
    for (; table->key != nullptr; ++table)
        if (key == table->key)
            return &table->digest;
    return nullptr;
}

} // namespace perfbench
