import math

import pytest
from hypothesis import settings

from landauzb import FieldConfig, GaussianPacket
from landauzb.packet import coefficient_matrix

# property sweeps draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def critical_field():
    """Magnetic length equal to the Compton wavelength."""
    return FieldConfig.from_magnetic_length(1.0)


@pytest.fixture(scope="session")
def packet_2p1(critical_field):
    return GaussianPacket(d_x=1.5, d_y=1.2, k0x=0.5, a1=0.0, a2=1.0, dimensionality="2+1")


@pytest.fixture(scope="session")
def coeffs_2p1(critical_field, packet_2p1):
    return coefficient_matrix(packet_2p1, critical_field)


@pytest.fixture(scope="session")
def packet_3p1(critical_field):
    return GaussianPacket(
        d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.8, a1=0.0, a2=1.0, dimensionality="3+1"
    )


@pytest.fixture(scope="session")
def coeffs_3p1(critical_field, packet_3p1):
    return coefficient_matrix(packet_3p1, critical_field)


@pytest.fixture(scope="session")
def mixed_packet_3p1(critical_field):
    amp = complex(math.sqrt(0.5))
    return GaussianPacket(
        d_x=1.5, d_y=1.3, d_z=1.5, k0x=0.55, k0z=0.3,
        a1=amp, a2=amp, dimensionality="3+1",
    )


@pytest.fixture(scope="session")
def mixed_coeffs_3p1(critical_field, mixed_packet_3p1):
    return coefficient_matrix(mixed_packet_3p1, critical_field)
