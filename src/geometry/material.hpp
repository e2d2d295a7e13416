/// \file material.hpp
/// \brief Thermal materials. Conductivity, density and specific heat feed
/// the finite-volume assembler; the built-in library covers every layer of
/// the paper's Fig. 7 package stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace photherm::geometry {

/// Opaque material handle (index into a MaterialLibrary).
struct MaterialId {
  std::uint16_t index = 0;
  bool operator==(const MaterialId&) const = default;
};

/// Homogeneous isotropic material.
struct Material {
  std::string name;
  double conductivity;    ///< [W/(m*K)]
  double density;         ///< [kg/m^3]
  double specific_heat;   ///< [J/(kg*K)]
};

/// Registry of materials; ids are stable for the lifetime of the library
/// object. A default-constructed library is pre-populated with the standard
/// set (see standard_materials()).
class MaterialLibrary {
 public:
  /// Creates a library pre-filled with the standard material set.
  MaterialLibrary();

  /// Creates an empty library.
  static MaterialLibrary empty();

  /// Register a material; name must be unique. Returns its id.
  MaterialId add(Material material);

  /// Lookup by name; throws photherm::SpecError when absent.
  MaterialId id_of(const std::string& name) const;

  /// True when a material with this name exists.
  bool contains(const std::string& name) const;

  const Material& get(MaterialId id) const;
  const Material& get(const std::string& name) const { return get(id_of(name)); }

  std::size_t size() const { return materials_.size(); }

 private:
  explicit MaterialLibrary(bool populate);
  std::vector<Material> materials_;
};

/// Names of the built-in materials (silicon, silicon_dioxide, copper,
/// aluminum, fr4, steel, epoxy, solder, tim, inp, ingaasp, air, underfill,
/// silicon_interposer, beol, optical_matrix, bonding).
std::vector<std::string> standard_material_names();

}  // namespace photherm::geometry
