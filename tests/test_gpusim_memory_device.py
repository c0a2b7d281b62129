"""GPU memory model, device limits, launch validation."""

import numpy as np
import pytest

from repro.gpusim import (
    Device,
    DeviceBuffer,
    DeviceSpec,
    Dim3,
    FERMI_C2050,
    Idx3,
    InvalidPointerError,
    KEPLER_K20,
    LaunchConfigError,
    OutOfBoundsError,
    OutOfMemoryError,
    PASCAL_P100,
    SharedArray,
    dim3,
)


class TestDim3:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Dim3(0, 1, 1)

    def test_count(self):
        assert Dim3(4, 2, 3).count == 24

    def test_linear_index_x_fastest(self):
        d = Dim3(4, 4, 2)
        assert d.linear_index(1, 0, 0) == 1
        assert d.linear_index(0, 1, 0) == 4
        assert d.linear_index(0, 0, 1) == 16

    def test_iter_points_order(self):
        pts = list(Dim3(2, 2, 1).iter_points())
        assert pts == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_coercion(self):
        assert dim3(5) == Dim3(5, 1, 1)
        assert dim3((2, 3)) == Dim3(2, 3, 1)
        assert dim3(Dim3(1, 2, 3)) == Dim3(1, 2, 3)

    def test_idx3_allows_zero_but_not_negative(self):
        Idx3(0, 0, 0)
        with pytest.raises(ValueError):
            Idx3(-1, 0, 0)


class TestDeviceBuffer:
    def test_read_write(self):
        buf = DeviceBuffer(4, "float")
        buf.write(2, 3.5)
        assert buf.read(2) == pytest.approx(3.5)

    def test_a_bool_element_reads_as_a_python_bool(self):
        buf = DeviceBuffer(2, "bool")
        buf.write(1, True)
        assert [type(buf.read(i)) for i in (0, 1)] == [bool, bool]
        assert [buf.read(i) for i in (0, 1)] == [False, True]

    def test_bounds_check_like_memcheck(self):
        buf = DeviceBuffer(4, "int")
        with pytest.raises(OutOfBoundsError):
            buf.read(4)
        with pytest.raises(OutOfBoundsError):
            buf.write(-1, 0)

    def test_use_after_free(self):
        device = Device()
        buf = device.malloc(4, "float")
        device.free(buf)
        with pytest.raises(InvalidPointerError):
            buf.read(0)

    def test_read_only_buffer(self):
        buf = DeviceBuffer(4, "float", read_only=True)
        with pytest.raises(OutOfBoundsError, match="read-only"):
            buf.write(0, 1.0)

    def test_pointer_arithmetic(self):
        buf = DeviceBuffer(10, "float")
        buf.write(7, 1.5)
        ptr = buf.ptr(5) + 2
        assert ptr.read(0) == pytest.approx(1.5)
        assert (ptr - 2).offset == 5

    def test_byte_addresses_distinct_per_allocation(self):
        a, b = DeviceBuffer(4, "float"), DeviceBuffer(4, "float")
        assert a.byte_address(0) != b.byte_address(0)
        assert a.byte_address(1) - a.byte_address(0) == 4

    def test_ctype_dtype_mapping(self):
        assert DeviceBuffer(1, "double").dtype == np.float64
        assert DeviceBuffer(1, "unsigned char").dtype == np.uint8


class TestSharedArray:
    def test_bank_mapping_floats(self):
        arr = SharedArray("s", 64, "float")
        assert arr.bank(0) == 0
        assert arr.bank(1) == 1
        assert arr.bank(32) == 0  # wraps at 32 banks

    def test_bounds(self):
        arr = SharedArray("s", 8, "int")
        with pytest.raises(OutOfBoundsError):
            arr.read(8)


class TestDevice:
    def test_oom(self):
        device = Device(DeviceSpec(
            name="tiny", compute_capability=(3, 0), num_sms=1,
            global_mem_bytes=64))
        with pytest.raises(OutOfMemoryError):
            device.malloc(1024, "float")

    def test_allocation_accounting(self):
        device = Device()
        buf = device.malloc(1000, "float")
        assert device.bytes_allocated == 4000
        device.free(buf)
        assert device.bytes_allocated == 0
        assert device.peak_bytes_allocated == 4000

    def test_double_free(self):
        device = Device()
        buf = device.malloc(4, "float")
        device.free(buf)
        with pytest.raises(InvalidPointerError):
            device.free(buf)

    def test_launch_validation_threads_per_block(self):
        device = Device()
        with pytest.raises(LaunchConfigError):
            device.validate_launch(Dim3(1), Dim3(2048))

    def test_launch_validation_block_dim_z(self):
        device = Device()
        with pytest.raises(LaunchConfigError, match="blockDim.z"):
            device.validate_launch(Dim3(1), Dim3(1, 1, 128))

    def test_launch_validation_grid_dim(self):
        device = Device()
        with pytest.raises(LaunchConfigError, match="gridDim.y"):
            device.validate_launch(Dim3(1, 100000), Dim3(32))

    def test_launch_validation_shared_mem(self):
        device = Device()
        with pytest.raises(LaunchConfigError, match="shared"):
            device.validate_launch(Dim3(1), Dim3(32),
                                   shared_bytes=1024 * 1024)

    def test_properties_match_spec(self):
        props = Device(PASCAL_P100).properties()
        assert props.name == "Pascal P100"
        assert props.multiprocessor_count == 56
        assert props.warp_size == 32

    def test_spec_presets_ordering(self):
        # newer generations have more peak compute
        assert PASCAL_P100.peak_gflops > KEPLER_K20.peak_gflops \
            > FERMI_C2050.peak_gflops
